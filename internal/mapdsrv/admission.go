package mapdsrv

import (
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"time"
)

// Admission control: per-client token buckets in front of the engine's
// bounded queue. The queue bound protects the process from unbounded
// memory; the buckets protect well-behaved clients from a single noisy
// one. Both shed with 429 + Retry-After — the contract a fleet's
// clients back off on — and both are observable through /v1/stats.

// limiter is a per-client token-bucket admission limiter. A nil limiter
// admits everything (the -quota flag unset).
type limiter struct {
	rate  float64 // tokens per second per client
	burst float64 // bucket capacity

	mu      sync.Mutex
	buckets map[string]*bucket

	// quotaHits counts per-client 429s; the job API's shedTotal counts
	// every shed request across causes.
	quotaHits map[string]int64
}

// bucket is one client's token bucket: a continuous refill at the
// limiter's rate, capped at burst.
type bucket struct {
	tokens float64
	last   time.Time
}

// maxClients bounds the bucket map. Beyond it the stalest bucket is
// evicted — a full-burst bucket behaves identically to an absent one,
// so eviction never penalizes (or favors) anyone.
const maxClients = 4096

// newLimiter builds a limiter allowing rate submissions/second with
// bursts of burst; nil when rate is unlimited (<= 0).
func newLimiter(rate float64, burst int) *limiter {
	if rate <= 0 {
		return nil
	}
	if burst < 1 {
		burst = int(math.Max(1, math.Ceil(2*rate)))
	}
	return &limiter{
		rate:      rate,
		burst:     float64(burst),
		buckets:   make(map[string]*bucket),
		quotaHits: make(map[string]int64),
	}
}

// allow charges one token to the client's bucket. When the bucket is
// empty it returns false and the wait until a token refills — the
// Retry-After the client is told.
func (l *limiter) allow(client string, now time.Time) (bool, time.Duration) {
	if l == nil {
		return true, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.buckets[client]
	if !ok {
		if len(l.buckets) >= maxClients {
			l.evictStalestLocked(now)
		}
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[client] = b
	}
	b.tokens = math.Min(l.burst, b.tokens+now.Sub(b.last).Seconds()*l.rate)
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	l.quotaHits[client]++
	wait := time.Duration((1 - b.tokens) / l.rate * float64(time.Second))
	return false, wait
}

// evictStalestLocked drops the bucket idle the longest. Caller holds
// l.mu.
func (l *limiter) evictStalestLocked(now time.Time) {
	var stalest string
	oldest := now
	for client, b := range l.buckets {
		if !b.last.After(oldest) {
			oldest = b.last
			stalest = client
		}
	}
	if stalest != "" {
		delete(l.buckets, stalest)
	}
}

// snapshot returns the limiter's /v1/stats payload: configuration,
// tracked clients and per-client quota hits.
func (l *limiter) snapshot() map[string]any {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	hits := make(map[string]int64, len(l.quotaHits))
	for c, n := range l.quotaHits {
		hits[c] = n
	}
	return map[string]any{
		"quota_rate":  l.rate,
		"quota_burst": l.burst,
		"clients":     len(l.buckets),
		"quota_hits":  hits,
	}
}

// clientKey identifies the requester for quota accounting: the
// X-Client-ID header when present (a cooperative fleet names itself),
// otherwise the remote host.
func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// retryAfterSeconds renders a Retry-After value: at least 1 second,
// rounded up, so a client library's naive sleep is always nonzero —
// plus a uniform random spread of up to half the base wait. Without
// the jitter, every client shed in the same overload moment is told
// the same second and the whole cohort returns as a thundering herd
// that sheds again; the spread staggers their return while keeping the
// promise that waiting the advertised time is always enough.
func retryAfterSeconds(d time.Duration) int {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs + rand.IntN(secs/2+2)
}

// quotaError refuses a submission over its client's quota; wait is the
// time until a token refills, which the client is told to back off.
type quotaError struct {
	client string
	wait   time.Duration
}

// Error names the client over its quota.
func (e *quotaError) Error() string {
	return fmt.Sprintf("client %q over submission quota", e.client)
}
