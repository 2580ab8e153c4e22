package topology

import "repro/internal/bitvec"

// maxDistanceTablePEs caps the size of materialized distance tables:
// a P×P uint8 table for P = 4096 is 16 MiB — cheap to build once and
// share read-only — while the serving-limit topologies (up to 2^16 PEs)
// would need 4 GiB. Beyond the cap, DistanceTable returns nil and
// callers fall back to per-pair Hamming distances; the values are
// identical either way.
const maxDistanceTablePEs = 4096

// DistanceTable is an all-pairs hop-distance table of a topology:
// D[u*P+v] = d_Gp(u, v). Distances in a partial cube are Hamming
// distances between labels, bounded by the label width (≤ 64), so every
// entry fits a uint8. Tables are immutable once built and shared
// read-only across every consumer of the owning Topology — the greedy
// mappers' O(P²) scans and the Coco/Dilation evaluations replace an
// xor+popcount on two label loads with one row-indexed byte load.
type DistanceTable struct {
	P int
	D []uint8 // row-major, len P*P
}

// At returns the hop distance between PEs u and v.
func (t *DistanceTable) At(u, v int) int { return int(t.D[u*t.P+v]) }

// Row returns the distances from PE u to every PE.
func (t *DistanceTable) Row(u int) []uint8 { return t.D[u*t.P : (u+1)*t.P] }

// DistanceTable returns the topology's all-pairs distance table,
// building it on first use (the same lazy-once pattern as PEOf: shared
// topologies are hit by concurrent engine jobs). It returns nil when
// the topology exceeds maxDistanceTablePEs; callers must then fall back
// to Distance. The engine's artifact cache prewarms the table when it
// builds a topology, so serving jobs never pay for it. Consumers whose
// own work is cheaper than the O(P²) build (Coco/Dilation edge walks)
// use PeekDistanceTable instead.
func (t *Topology) DistanceTable() *DistanceTable {
	t.distOnce.Do(t.buildDistanceTable)
	return t.dist.Load()
}

// PeekDistanceTable returns the table only if something already built
// it (DistanceTable directly, or the engine cache's prewarm), never
// triggering the O(P²) build itself: a one-shot Coco evaluation on a
// large library-built topology must not pay for — and retain — a
// multi-megabyte table to serve one O(m) edge walk.
func (t *Topology) PeekDistanceTable() *DistanceTable { return t.dist.Load() }

// FootprintBytes approximates the topology's heap footprint once its
// PEOf index and distance table are built, as the engine's artifact
// cache builds them: the graph's CSR arrays, the labels, the label→PE
// map (about 32 bytes per PE) and the P×P table (absent beyond
// maxDistanceTablePEs). It is the size-accounting unit of that cache.
func (t *Topology) FootprintBytes() int64 {
	p := int64(t.P())
	n := t.G.FootprintBytes() + int64(len(t.Labels))*8 + p*32
	if p <= maxDistanceTablePEs {
		n += p * p
	}
	return n
}

func (t *Topology) buildDistanceTable() {
	p := t.P()
	if p == 0 || p > maxDistanceTablePEs {
		return
	}
	d := make([]uint8, p*p)
	for u := 0; u < p; u++ {
		lu := t.Labels[u]
		row := d[u*p : (u+1)*p]
		for v := 0; v < p; v++ {
			row[v] = uint8(bitvec.Hamming(lu, t.Labels[v]))
		}
	}
	t.dist.Store(&DistanceTable{P: p, D: d})
}
