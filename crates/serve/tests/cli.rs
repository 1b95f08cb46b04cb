//! Command-line validation of the `gramer-serve` daemon: a value the
//! daemon cannot use is a usage error before anything starts.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn a_deadline_a_duration_cannot_hold_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("gramer-serve-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let addr_file = dir.join("addr");
    for bad in ["-1", "nan", "inf", "1e300", "0"] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_gramer-serve"))
            .args(["--addr", "127.0.0.1:0", "--workers", "0", "--deadline", bad])
            .arg("--addr-file")
            .arg(&addr_file)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("start gramer-serve");
        // A daemon that accepted the value would serve until killed.
        let until = Instant::now() + Duration::from_secs(30);
        let status = loop {
            if let Some(status) = child.try_wait().expect("wait") {
                break Some(status);
            }
            if Instant::now() >= until {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        let published = addr_file.exists();
        let _ = std::fs::remove_file(&addr_file);
        assert_eq!(status.and_then(|s| s.code()), Some(2), "--deadline {bad}");
        assert!(!published, "--deadline {bad} published an address");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
