use gramer_graph::VertexId;

/// Receives the memory accesses the extension process performs.
///
/// The paper's key characterisation (§II-B) is that graph mining issues
/// random accesses on *both* vertex and edge data; everything downstream —
/// the Fig. 3 stall study, the Fig. 5 locality traces, and the
/// accelerator's cycle accounting — consumes exactly this event stream.
///
/// `size` is the number of vertices in the embedding being extended when
/// the access occurred, i.e. the access belongs to iteration `size` in the
/// paper's per-iteration figures.
pub trait AccessObserver {
    /// A random access to vertex `v`'s data (CSR row / label read).
    fn vertex_access(&mut self, v: VertexId, size: usize);

    /// A random access to the adjacency slot `slot` (edge data read,
    /// either a neighbor-list walk or a connectivity check probe). `src`
    /// is the vertex whose adjacency run contains `slot`: an edge datum
    /// inherits its source's priority rank (§IV-B), and the extension
    /// engine always knows the source, so passing it here saves timed
    /// observers a random lookup in a slot → source table as large as
    /// the edge array itself.
    fn edge_access(&mut self, slot: usize, src: VertexId, size: usize);

    /// A connectivity probe answered by the pair-memo table: the one
    /// vertex access and two edge probes it replaces were *not* issued.
    /// Timed observers charge the modeled memo-lookup latency here;
    /// everyone else defaults to ignoring it (the hooks only fire when a
    /// memo is active, so the default path never pays for them).
    #[inline]
    fn memo_hit(&mut self, _size: usize) {}

    /// A connectivity probe that missed the memo and was resolved
    /// honestly (its accesses were reported through the normal hooks).
    /// The lookup itself is modeled as pipelined with the probe, so no
    /// latency is charged on a miss.
    #[inline]
    fn memo_miss(&mut self, _size: usize) {}

    /// A memo insert displaced an LRU entry (byte budget exhausted).
    #[inline]
    fn memo_evict(&mut self, _size: usize) {}

    /// A candidate-filter admission probe (one read of the query
    /// front end's filter SRAM). Only fires when a candidate filter is
    /// active, so the unfiltered path never pays for the hook. Timed
    /// observers charge the modeled filter-lookup latency here.
    #[inline]
    fn filter_probe(&mut self, _admitted: bool, _size: usize) {}
}

/// An observer that ignores everything (zero-overhead mining).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl AccessObserver for NullObserver {
    #[inline]
    fn vertex_access(&mut self, _v: VertexId, _size: usize) {}

    #[inline]
    fn edge_access(&mut self, _slot: usize, _src: VertexId, _size: usize) {}
}

/// An observer that counts accesses, optionally split by iteration.
#[derive(Debug, Clone, Default)]
pub struct CountingObserver {
    /// Total vertex accesses.
    pub vertex_accesses: u64,
    /// Total edge accesses.
    pub edge_accesses: u64,
}

impl AccessObserver for CountingObserver {
    fn vertex_access(&mut self, _v: VertexId, _size: usize) {
        self.vertex_accesses += 1;
    }

    fn edge_access(&mut self, _slot: usize, _src: VertexId, _size: usize) {
        self.edge_accesses += 1;
    }
}

impl<T: AccessObserver + ?Sized> AccessObserver for &mut T {
    fn vertex_access(&mut self, v: VertexId, size: usize) {
        (**self).vertex_access(v, size);
    }

    fn edge_access(&mut self, slot: usize, src: VertexId, size: usize) {
        (**self).edge_access(slot, src, size);
    }

    fn memo_hit(&mut self, size: usize) {
        (**self).memo_hit(size);
    }

    fn memo_miss(&mut self, size: usize) {
        (**self).memo_miss(size);
    }

    fn memo_evict(&mut self, size: usize) {
        (**self).memo_evict(size);
    }

    fn filter_probe(&mut self, admitted: bool, size: usize) {
        (**self).filter_probe(admitted, size);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_observer_counts() {
        let mut c = CountingObserver::default();
        c.vertex_access(3, 1);
        c.edge_access(5, 0, 1);
        c.edge_access(6, 0, 2);
        assert_eq!(c.vertex_accesses, 1);
        assert_eq!(c.edge_accesses, 2);
    }

    #[test]
    fn mut_ref_forwarding() {
        let mut c = CountingObserver::default();
        {
            let r = &mut c;
            r.vertex_access(0, 1);
        }
        assert_eq!(c.vertex_accesses, 1);
    }
}
