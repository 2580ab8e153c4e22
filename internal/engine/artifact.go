package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/topology"
)

// ArtifactCache memoizes expensive pipeline artifacts under
// content-addressed keys: partial-cube topologies (keyed by canonical
// topology spec), materialized graphs (netgen generation keyed by
// canonical spec) and multilevel partitions (keyed by graph
// fingerprint, block count, imbalance and partition seed). It is the
// batch-level complement of the per-worker scratch arenas — the arenas
// make each stage allocation-free, the artifact cache eliminates whole
// redundant stages across jobs that ask for the same artifact.
//
// Three properties matter for correctness:
//
//   - values are immutable once published: a cached *graph.Graph,
//     *partition.Result or *topology.Topology is shared read-only by
//     every job that hits it (the pipeline's consumers copy before
//     mutating — FromPartition and Compose allocate fresh
//     assignments), so eviction merely drops the cache's reference;
//     holders keep theirs and never observe the backing arrays being
//     reused;
//   - single-flight coalescing: concurrent requests for the same key
//     block on the first requester's computation instead of duplicating
//     it, and each key's builder runs exactly once per residency;
//   - failed builds are cached too: a deterministic failure (graph too
//     small for K, an odd torus) keeps failing without re-running the
//     build.
//
// The cache is bounded both by entry count and by the approximate byte
// footprint of its values; eviction is LRU over fully-built entries.
type ArtifactCache struct {
	mu         sync.Mutex
	entries    map[string]*artifactEntry
	order      []string // least-recently-used first
	maxEntries int
	maxBytes   int64
	bytes      int64

	hits          int64
	misses        int64
	inflightWaits int64
	errorHits     int64
	evictions     int64

	// disk is the optional persistent second tier (nil when the engine
	// runs memory-only). Lookup order is memory, then disk, then the
	// caller's build; both the disk consult and the write-through happen
	// inside the entry's single-flight build closure, so concurrent
	// requesters coalesce onto one disk read or one recompute regardless
	// of which tier ends up serving. Memory evictions re-spill to disk
	// and Invalidate removes both tiers' entries.
	disk *diskTier

	// fps memoizes CSR fingerprints of caller-supplied graphs by
	// pointer (see fingerprintOf).
	fpMu sync.Mutex
	fps  map[*graph.Graph]graph.Fingerprint
}

type artifactEntry struct {
	key   string
	ready chan struct{} // closed when val/err/buildSeconds are set
	val   any
	bytes int64
	err   error

	buildSeconds float64
	hits         int64 // lookups beyond the building one; under cache mu
}

// Artifact cache defaults: generous enough to hold a whole batch's
// shared partitions at paper scale, small enough that an engine idling
// after a huge run does not pin gigabytes.
const (
	defaultArtifactEntries = 1024
	defaultArtifactBytes   = 256 << 20
)

// NewArtifactCache creates a cache bounded by maxEntries entries and
// maxBytes of value footprint; zero values select the defaults.
func NewArtifactCache(maxEntries int, maxBytes int64) *ArtifactCache {
	if maxEntries <= 0 {
		maxEntries = defaultArtifactEntries
	}
	if maxBytes <= 0 {
		maxBytes = defaultArtifactBytes
	}
	return &ArtifactCache{
		entries:    make(map[string]*artifactEntry),
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		fps:        make(map[*graph.Graph]graph.Fingerprint),
	}
}

// maxFingerprintMemo bounds the pointer→fingerprint memo: an engine
// churning through per-job inline graphs must not accumulate them, and
// each memoized pointer pins its graph. 64 comfortably covers a
// batch's working set of shared instances (the pre-artifact-cache
// batch runner pinned the same graphs for its whole lifetime).
const maxFingerprintMemo = 64

// fingerprintOf returns g's 128-bit CSR fingerprint, memoized by
// pointer: batches submit the same immutable *graph.Graph to every
// rep and case, so the O(n+m) hash runs once per instance instead of
// once per job. Keying by pointer is sound precisely because the map
// holds the pointer — the graph stays reachable, so its address can
// never be recycled for a different graph while the memo lives. At the
// cap the memo resets wholesale (epoch clear) rather than tracking
// recency; a stampede of first-time graphs merely recomputes.
func (c *ArtifactCache) fingerprintOf(g *graph.Graph) graph.Fingerprint {
	c.fpMu.Lock()
	fp, ok := c.fps[g]
	c.fpMu.Unlock()
	if ok {
		return fp
	}
	fp = g.Fingerprint() // outside the lock; concurrent first calls agree
	c.fpMu.Lock()
	if len(c.fps) >= maxFingerprintMemo {
		clear(c.fps)
	}
	c.fps[g] = fp
	c.fpMu.Unlock()
	return fp
}

// do returns the cached value for key, or runs build exactly once to
// produce it (concurrent callers for the same key wait for that one
// build). size reports the value's footprint for byte-bounded eviction.
func (c *ArtifactCache) do(key string, build func() (any, int64, error)) (any, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		inflight := false
		select {
		case <-e.ready:
		default:
			inflight = true
		}
		e.hits++
		c.touchLocked(key)
		c.mu.Unlock()
		<-e.ready
		// Classify the lookup only once the outcome is known: a cached
		// *error* saved no stage work and must not inflate the hit rate —
		// it gets its own counter. Successful waits on an in-flight build
		// are the single-flight win, counted separately from plain hits.
		c.mu.Lock()
		switch {
		case e.err != nil:
			c.errorHits++
		case inflight:
			c.inflightWaits++
		default:
			c.hits++
		}
		c.mu.Unlock()
		return e.val, e.err
	}
	e := &artifactEntry{key: key, ready: make(chan struct{})}
	c.entries[key] = e
	c.order = append(c.order, key)
	c.misses++
	c.mu.Unlock()

	// publish closes ready and accounts the entry exactly once — also on
	// a panicking build, which would otherwise leave a forever-pending
	// entry that blocks every later requester of the key (the engine's
	// runGuarded contains the panic for the building job itself, but the
	// waiters and future hits must see a completed entry, not a hang).
	publish := func() {
		close(e.ready)
		c.mu.Lock()
		// The entry cannot have been evicted while building — evictLocked
		// skips entries whose ready channel is still open — so the
		// footprint accounting and the eviction sweep happen exactly once.
		c.bytes += e.bytes
		spill := c.evictLocked()
		c.mu.Unlock()
		// Re-spill evicted values to the disk tier outside the lock (store
		// skips anything already persisted, so this only does IO for
		// entries the disk tier has since dropped).
		for _, ev := range spill {
			if ev.err == nil {
				c.disk.store(ev.key, ev.val)
			}
		}
	}
	defer func() {
		if r := recover(); r != nil {
			e.val, e.bytes, e.err = nil, 0, fmt.Errorf("engine: artifact build for %q panicked: %v", key, r)
			publish()
			panic(r) // the building caller still observes its own panic
		}
	}()
	t0 := time.Now()
	e.val, e.bytes, e.err = build()
	e.buildSeconds = time.Since(t0).Seconds()
	publish()
	return e.val, e.err
}

// Invalidate drops the entry under key from every tier — the in-memory
// entry (if fully built) and the disk tier's snapshot file (if any) —
// so the next request rebuilds it. In-memory entries still building are
// left alone: their waiters must observe the build's own outcome. The
// ingest layer uses this to heal cached failures (a fixed input file, a
// re-upload after eviction); removing the disk entry too is what keeps
// a healed failure from being shadowed by a stale artifact
// resurrecting from disk. Pipeline artifacts never need invalidation
// because their builds are deterministic in the key.
func (c *ArtifactCache) Invalidate(key string) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		select {
		case <-e.ready:
		default:
			c.mu.Unlock()
			return // still building
		}
		delete(c.entries, key)
		for i, k := range c.order {
			if k == key {
				c.order = append(c.order[:i], c.order[i+1:]...)
				break
			}
		}
		c.bytes -= e.bytes
	}
	c.mu.Unlock()
	c.disk.remove(key)
}

// touchLocked refreshes key's recency. Caller holds c.mu.
func (c *ArtifactCache) touchLocked(key string) {
	for i, k := range c.order {
		if k == key {
			c.order = append(append(c.order[:i], c.order[i+1:]...), key)
			return
		}
	}
}

// evictLocked drops the least-recently-used fully-built entries while
// either bound is exceeded, returning them so the caller can re-spill
// their values to the disk tier after releasing the lock. Entries still
// building are skipped: their waiters must see the close of ready, and
// their footprint is unknown. Caller holds c.mu.
func (c *ArtifactCache) evictLocked() []*artifactEntry {
	var spill []*artifactEntry
	for len(c.order) > c.maxEntries || c.bytes > c.maxBytes {
		evicted := false
		for i, key := range c.order {
			e := c.entries[key]
			select {
			case <-e.ready:
				delete(c.entries, key)
				c.order = append(c.order[:i], c.order[i+1:]...)
				c.bytes -= e.bytes
				c.evictions++
				spill = append(spill, e)
				evicted = true
			default:
				continue
			}
			break
		}
		if !evicted {
			break // everything resident is still building
		}
	}
	return spill
}

// Graph returns the graph cached under key, building it on first use.
// With a disk tier attached, a memory miss consults disk before
// running build, and a fresh build is written through.
func (c *ArtifactCache) Graph(key string, build func() (*graph.Graph, error)) (*graph.Graph, error) {
	v, err := c.do(key, func() (any, int64, error) {
		if val, bytes, ok := c.disk.load(key); ok {
			if g, isGraph := val.(*graph.Graph); isGraph {
				return g, bytes, nil
			}
		}
		g, err := build()
		if err != nil {
			return nil, 0, err
		}
		c.disk.store(key, g)
		return g, g.FootprintBytes(), nil
	})
	if err != nil {
		return nil, err
	}
	g, ok := v.(*graph.Graph)
	if !ok {
		return nil, fmt.Errorf("engine: artifact %q holds %T, not a graph", key, v)
	}
	return g, nil
}

// Partition returns the partition cached under key, building it on
// first use. The second return reports whether the result came from the
// cache — a memory hit, a coalesced wait on another caller's in-flight
// build, or a verified disk snapshot — rather than from this caller's
// own build.
func (c *ArtifactCache) Partition(key string, build func() (*partition.Result, error)) (*partition.Result, bool, error) {
	var built bool
	v, err := c.do(key, func() (any, int64, error) {
		if val, bytes, ok := c.disk.load(key); ok {
			if p, isPart := val.(*partition.Result); isPart {
				return p, bytes, nil
			}
		}
		built = true
		p, err := build()
		if err != nil {
			return nil, 0, err
		}
		c.disk.store(key, p)
		// Part dominates; the struct's scalars are noise.
		return p, int64(len(p.Part))*4 + 64, nil
	})
	if err != nil {
		return nil, !built, err
	}
	p, ok := v.(*partition.Result)
	if !ok {
		return nil, !built, fmt.Errorf("engine: artifact %q holds %T, not a partition", key, v)
	}
	return p, !built, nil
}

// topoKeyPrefix prefixes the canonical spec in a topology's cache key.
// persistable does not admit it: the disk tier stores only graphs and
// partitions.
const topoKeyPrefix = "topo:"

// maxCachePEs caps the size of topologies the engine will build: specs
// arrive over an unauthenticated HTTP surface, and something like
// "hypercube:30" would attempt tens of GB of allocation — an OOM kill
// that recover() cannot catch. 2^16 PEs is two orders of magnitude
// beyond the paper's machines while keeping builds fast and small.
const maxCachePEs = 1 << 16

// maxValidatePEs bounds the construction-time isometry check:
// Topology.Validate is O(P·(P+E)) all-pairs BFS, affordable insurance
// at paper scale but a worker-pinning liability beyond it. Larger
// (still capped) topologies trust the analytic generators, which the
// topology package cross-checks against the recognizer in its tests.
const maxValidatePEs = 1 << 12

// Topology returns the partial-cube topology for spec, building it on
// first use under the key "topo:<canonical spec>", so every spelling
// of one processor graph shares one labeling. Unparsable specs and
// specs over maxCachePEs fail before the cache and leave no entry;
// failed builds (an odd torus, say) are cached like any other failure.
// Labelings count against the byte bound with their distance tables,
// which dominate their footprint. On a nil receiver — the engine's
// disabled cache — every call builds afresh.
func (c *ArtifactCache) Topology(spec string) (*topology.Topology, error) {
	parsed, err := topology.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	if p := parsed.PEs(); p > maxCachePEs {
		return nil, fmt.Errorf("engine: topology %s has %d PEs, exceeding the serving limit of %d", parsed, p, maxCachePEs)
	}
	if c == nil {
		return buildTopology(parsed)
	}
	key := topoKeyPrefix + parsed.String()
	v, err := c.do(key, func() (any, int64, error) {
		t, err := buildTopology(parsed)
		if err != nil {
			return nil, 0, err
		}
		return t, t.FootprintBytes(), nil
	})
	if err != nil {
		return nil, err
	}
	t, ok := v.(*topology.Topology)
	if !ok {
		return nil, fmt.Errorf("engine: artifact %q holds %T, not a topology", key, v)
	}
	return t, nil
}

// buildTopology builds a labeling for sharing: it verifies isometry
// once instead of trusting the generator (only at paper scale; see
// maxValidatePEs), then pays the lazy PEOf index and all-pairs distance
// table up front, so no job served from it stalls on a first use (the
// table is nil beyond its size cap; consumers fall back to Hamming
// distances).
func buildTopology(parsed topology.Spec) (*topology.Topology, error) {
	t, err := parsed.Build()
	if err != nil {
		return nil, err
	}
	if t.P() <= maxValidatePEs {
		if err := t.Validate(); err != nil {
			return nil, err
		}
	}
	t.PEOf(t.Labels[0])
	t.DistanceTable()
	return t, nil
}

// CacheInfo describes one cached topology for introspection endpoints.
type CacheInfo struct {
	// Spec is the canonical topology spec string keying the entry; PEs
	// and Dim are the built topology's processor count and labeling
	// dimension.
	Spec string `json:"spec"`
	PEs  int    `json:"pes"`
	Dim  int    `json:"dim"`
	// BuildSeconds is the one-time construction cost the cache
	// amortizes; Hits counts lookups served this entry.
	BuildSeconds float64 `json:"build_seconds"`
	Hits         int64   `json:"hits"`
	// Failed marks a negative entry: the build errored (Error says
	// why), and every lookup is served the same error.
	Failed bool   `json:"failed,omitempty"`
	Error  string `json:"error,omitempty"`
}

// Topologies lists the resident topology entries sorted by spec, for
// mapd's GET /v1/topologies. Entries still being built are skipped
// (they have no stats yet); a nil cache lists nothing.
func (c *ArtifactCache) Topologies() []CacheInfo {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	var out []CacheInfo
	for key, e := range c.entries {
		spec, ok := strings.CutPrefix(key, topoKeyPrefix)
		if !ok {
			continue
		}
		select {
		case <-e.ready:
		default:
			continue // build in flight
		}
		info := CacheInfo{Spec: spec, BuildSeconds: e.buildSeconds, Hits: e.hits}
		if e.err != nil {
			info.Failed = true
			info.Error = e.err.Error()
		} else if t, ok := e.val.(*topology.Topology); ok {
			info.PEs, info.Dim = t.P(), t.Dim
		}
		out = append(out, info)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Spec < out[j].Spec })
	return out
}

// ArtifactStats is a point-in-time snapshot of the cache's counters,
// served by mapd's GET /v1/stats and sampled by the bench harness for
// the artifact_hit_rate column.
type ArtifactStats struct {
	// Entries and Bytes are the cache's current footprint; CapEntries
	// and CapBytes are the configured LRU bounds (0 = unbounded).
	Entries    int   `json:"entries"`
	Bytes      int64 `json:"bytes"`
	CapEntries int   `json:"cap_entries"`
	CapBytes   int64 `json:"cap_bytes"`
	// Hits counts lookups served a finished value; InflightWaits counts
	// lookups coalesced onto a build in progress (the single-flight
	// savings); ErrorHits counts lookups served a cached *error* — no
	// stage work was saved, so they stay out of the hit rate; Misses
	// counts builds (including failed ones); Evictions counts entries
	// dropped by the LRU bounds.
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	InflightWaits int64 `json:"inflight_waits"`
	ErrorHits     int64 `json:"error_hits,omitempty"`
	Evictions     int64 `json:"evictions"`
	// Disk is the persistent tier's snapshot, or nil when the engine
	// runs memory-only (no Options.CacheDir).
	Disk *DiskStats `json:"disk,omitempty"`
}

// HitRate is (Hits+InflightWaits) / all value-producing lookups, or 0
// before the first lookup. Error-serving lookups count in neither
// numerator nor denominator: they saved nothing and would otherwise
// report a batch of failures as a well-cached batch.
func (s ArtifactStats) HitRate() float64 {
	total := s.Hits + s.InflightWaits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.InflightWaits) / float64(total)
}

// Stats returns the cache's counters.
func (c *ArtifactCache) Stats() ArtifactStats {
	var disk *DiskStats
	if c.disk != nil {
		ds := c.disk.stats()
		disk = &ds
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return ArtifactStats{
		Disk:          disk,
		Entries:       len(c.entries),
		Bytes:         c.bytes,
		CapEntries:    c.maxEntries,
		CapBytes:      c.maxBytes,
		Hits:          c.hits,
		Misses:        c.misses,
		InflightWaits: c.inflightWaits,
		ErrorHits:     c.errorHits,
		Evictions:     c.evictions,
	}
}
