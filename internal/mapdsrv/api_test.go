package mapdsrv

import (
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/mapclient"
)

// TestErrorStatus pins the job API's error → status + Retry-After
// mapping for every error class a backend can return, wrapped as
// backends wrap them. Local Retry-After values are jittered, so only
// their floor is checked; a relayed upstream value must pass unchanged.
func TestErrorStatus(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("context: %w", err) }
	for _, tc := range []struct {
		name     string
		err      error
		status   int
		minRetry int // 0: no Retry-After allowed
		exact    bool
	}{
		{"invalid spec", wrap(engine.ErrInvalidSpec), http.StatusBadRequest, 0, true},
		{"unknown job", wrap(engine.ErrUnknownJob), http.StatusNotFound, 0, true},
		{"queue full", wrap(engine.ErrQueueFull), http.StatusTooManyRequests, 1, false},
		{"draining", wrap(engine.ErrDraining), http.StatusServiceUnavailable, 5, false},
		{"quota", &quotaError{client: "c", wait: 2 * time.Second}, http.StatusTooManyRequests, 2, false},
		{"closed engine", engine.ErrClosed, http.StatusServiceUnavailable, 1, false},
		{"transport failure", errors.New("dial tcp: connection refused"), http.StatusServiceUnavailable, 1, false},
		{"upstream 429", wrap(&mapclient.APIError{Status: 429, RetryAfter: 3 * time.Second}), http.StatusTooManyRequests, 3, true},
		{"upstream 400", &mapclient.APIError{Status: 400}, http.StatusBadRequest, 0, true},
	} {
		status, retry := errorStatus(tc.err)
		if status != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, status, tc.status)
		}
		if retry < tc.minRetry || (tc.exact && retry != tc.minRetry) {
			t.Errorf("%s: Retry-After %d, want %d (exact %v)", tc.name, retry, tc.minRetry, tc.exact)
		}
	}
}
