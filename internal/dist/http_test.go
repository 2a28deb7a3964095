package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// workerServer mounts the shard handler for the scenario-7 test sweep on a
// loopback HTTP server.
func workerServer(t *testing.T) *httptest.Server {
	t.Helper()
	sw := testSweep(t)
	srv := httptest.NewServer(&WorkerServer{Source: sw.Source})
	t.Cleanup(srv.Close)
	return srv
}

// TestHTTPTransportMatchesSingleProcess is the loopback acceptance test for
// the HTTP transport: three shards POSTed to one worker daemon, merged output
// byte-identical to a single process — with zero coordinator changes.
func TestHTTPTransportMatchesSingleProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 12-variant scenario-7 family twice over loopback HTTP")
	}
	sw := testSweep(t)
	srv := workerServer(t)
	wantStream, wantAgg := singleProcess(t, sw.Source())
	gotStream, gotAgg := distributed(t, Options{
		Workers:   3,
		Transport: &HTTPTransport{Hosts: []string{srv.URL}},
	}, sw.Source())
	requireIdentical(t, wantStream, wantAgg, gotStream, gotAgg)
}

// stallAfterWriter lets n writes through, then blocks every later write until
// the request is cancelled.  It turns "kill an HTTP worker mid-stream" into a
// deterministic event: the victim's first line is on the wire, the rest can
// only be freed by the coordinator's Kill cancelling the request.
type stallAfterWriter struct {
	http.ResponseWriter
	n    int
	done <-chan struct{}

	writes int
}

func (w *stallAfterWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > w.n {
		<-w.done
		return 0, errors.New("request cancelled")
	}
	return w.ResponseWriter.Write(p)
}

func (w *stallAfterWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TestHTTPTransportKillRequeue kills one HTTP worker mid-stream (request
// cancellation, the HTTP analogue of SIGKILL) and checks the shard is
// re-queued, the replacement skips the proved prefix, and the merged output
// stays byte-identical.  The server stalls the victim shard's first attempt
// after one line, so the kill is guaranteed to land on a request that is
// still producing, with work genuinely outstanding.
func TestHTTPTransportKillRequeue(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 12-variant scenario-7 family twice over loopback HTTP, once with a kill")
	}
	sw := testSweep(t)
	const n = 3
	counts := shardCounts(t, sw.Source(), n)
	victim := 0
	for s, c := range counts {
		if c > counts[victim] {
			victim = s
		}
	}

	ws := &WorkerServer{Source: sw.Source}
	var mu sync.Mutex
	attempts := make(map[int]int)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		raw, _ := io.ReadAll(r.Body)
		var spec ShardSpec
		json.Unmarshal(raw, &spec)
		r.Body = io.NopCloser(bytes.NewReader(raw))
		mu.Lock()
		attempt := attempts[spec.Index]
		attempts[spec.Index]++
		mu.Unlock()
		if spec.Index == victim && attempt == 0 {
			ws.ServeHTTP(&stallAfterWriter{ResponseWriter: w, n: 1, done: r.Context().Done()}, r)
			return
		}
		ws.ServeHTTP(w, r)
	}))
	defer srv.Close()
	wantStream, wantAgg := singleProcess(t, sw.Source())

	tr := &cutTransport{inner: &HTTPTransport{Hosts: []string{srv.URL}}, cut: victim, lines: 1}
	gotStream, gotAgg := distributed(t, Options{Workers: n, MaxAttempts: 3, Transport: tr}, sw.Source())
	requireIdentical(t, wantStream, wantAgg, gotStream, gotAgg)
	if len(tr.skips) == 0 {
		t.Fatal("the killed shard was never re-queued")
	}
	if tr.skips[0] != 1 {
		t.Errorf("the replacement skips %d variants, want the 1 its predecessor delivered", tr.skips[0])
	}
}

// TestHTTPTransportStartErrors pins the spawn-failure paths: no hosts, an
// unreachable host, and a server that rejects the request before streaming.
func TestHTTPTransportStartErrors(t *testing.T) {
	ctx := context.Background()
	if _, err := (&HTTPTransport{}).Start(ctx, ShardSpec{Total: 1}); err == nil {
		t.Error("HTTPTransport without hosts must refuse to start")
	}
	// An unreachable loopback port: connection refused surfaces as a spawn
	// error, which the coordinator charges against the attempt budget.
	unreachable := &HTTPTransport{Hosts: []string{"127.0.0.1:1"}}
	if _, err := unreachable.Start(ctx, ShardSpec{Total: 1}); err == nil {
		t.Error("an unreachable host must fail the spawn")
	}
	// A handler that rejects the shard: the non-2xx status (and its body)
	// must come back as the spawn error.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "worker is misconfigured", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	_, err := (&HTTPTransport{Hosts: []string{srv.URL}}).Start(ctx, ShardSpec{Total: 1})
	if err == nil || !strings.Contains(err.Error(), "worker is misconfigured") {
		t.Errorf("a rejecting worker should surface its message, got: %v", err)
	}
}

// TestWorkerServerRejectsBadRequests pins the daemon-side validation.
func TestWorkerServerRejectsBadRequests(t *testing.T) {
	srv := workerServer(t)

	if resp, err := http.Get(srv.URL); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET should be rejected with 405, got %s", resp.Status)
		}
	}
	for _, body := range []string{"not json at all", `{"index":5,"total":3}`, `{"index":-1,"total":2}`, `{"index":0,"total":0}`} {
		resp, err := http.Post(srv.URL, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q should be rejected with 400, got %s", body, resp.Status)
		}
	}
}

// TestWorkerServerStreamsShard drives one shard request by hand and checks
// the response is the worker protocol: the shard's run lines, then one
// aggregate trailer, and a clean (empty) error trailer.
func TestWorkerServerStreamsShard(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluates one shard of the scenario-7 family")
	}
	srv := workerServer(t)
	body, _ := json.Marshal(ShardSpec{Index: 0, Total: 3})
	resp, err := http.Post(srv.URL, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shard request failed: %s", resp.Status)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if msg := resp.Trailer.Get(workerErrTrailer); msg != "" {
		t.Errorf("clean shard evaluation set the error trailer: %q", msg)
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("expected run lines plus an aggregate trailer, got %d line(s)", len(lines))
	}
	runs := 0
	for i, line := range lines {
		rep, ok, err := ParseResultLine(line)
		if err != nil {
			t.Fatalf("line %d unparseable: %v", i, err)
		}
		if ok {
			runs++
			if rep.Name == "" {
				t.Errorf("line %d: run report without a name", i)
			}
		} else if i != len(lines)-1 {
			t.Errorf("aggregate trailer at line %d, not last", i)
		}
	}
	var agg AggregateReport
	if err := json.Unmarshal(lines[len(lines)-1], &agg); err != nil {
		t.Fatalf("final line is not an aggregate trailer: %v", err)
	}
	if agg.Runs != runs {
		t.Errorf("trailer covers %d runs, stream carried %d", agg.Runs, runs)
	}
}

// TestJoinHostPath pins the URL assembly rules.
func TestJoinHostPath(t *testing.T) {
	cases := map[[2]string]string{
		{"127.0.0.1:8571", "/shard"}:       "http://127.0.0.1:8571/shard",
		{"http://worker:80", "/shard"}:     "http://worker:80/shard",
		{"http://worker:80/", "/shard"}:    "http://worker:80/shard",
		{"https://worker.example", "/run"}: "https://worker.example/run",
	}
	for in, want := range cases {
		if got := joinHostPath(in[0], in[1]); got != want {
			t.Errorf("joinHostPath(%q, %q) = %q, want %q", in[0], in[1], got, want)
		}
	}
}
