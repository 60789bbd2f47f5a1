package cdn

import (
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDefaultClientReusesConnections pins the keep-alive behavior of the
// default (no explicit http.Client) HTTPClient path. The regression this
// guards: falling back to http.DefaultClient caps the idle pool at 2
// connections per host, so a fleet's concurrent pulls against one edge
// host churned TCP connections — a burst of 8 parallel requests followed
// by another burst re-dialed most of them. With the shared tuned
// transport, every connection opened by the first burst is reusable by
// the second.
func TestDefaultClientReusesConnections(t *testing.T) {
	const parallel = 8
	var conns, arrived atomic.Int64
	// The first burst's requests are held until all of them have arrived,
	// so each one occupies its own connection and the pool ends up with
	// exactly parallel idle connections; without the barrier a request that
	// finished early could be reused within the burst, leaving the second
	// burst one connection short.
	allArrived := make(chan struct{})
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if arrived.Add(1) == parallel {
			close(allArrived)
		}
		select {
		case <-allArrived:
		case <-time.After(5 * time.Second):
		}
		w.Write([]byte("CA1\n"))
	}))
	srv.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	client := &HTTPClient{BaseURL: srv.URL} // nil Client: the shared default transport

	burst := func() {
		var wg sync.WaitGroup
		for i := 0; i < parallel; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := client.CAs(); err != nil {
					t.Errorf("CAs: %v", err)
				}
			}()
		}
		wg.Wait()
	}

	burst()
	after1 := conns.Load()
	if after1 > parallel {
		t.Fatalf("first burst of %d requests opened %d connections", parallel, after1)
	}
	// Let the final bodies be returned to the idle pool before re-bursting.
	time.Sleep(100 * time.Millisecond)
	burst()
	if after2 := conns.Load(); after2 != after1 {
		t.Errorf("second burst opened %d new connections (total %d); the idle pool should have satisfied all %d",
			after2-after1, after2, parallel)
	}
}
