package dist

// HTTP realization of the worker protocol: a ShardSpec is POSTed as JSON and
// the worker streams back the exact `scenarios -stream` NDJSON as a chunked
// response, so the coordinator's merge path is untouched — an HTTP worker is
// indistinguishable from a child process that happens to live on another
// host.
//
//lint:deterministic — no wall-clock reads or global randomness may decide
// what a shard computes; timeouts shape only *when* bytes move, never what
// they say.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"
)

// workerErrTrailer is the HTTP trailer a worker uses to report an evaluation
// error after the response body has started streaming (the status line is
// long gone by then).  An empty or absent trailer means the stream ended
// cleanly.
const workerErrTrailer = "X-Sweep-Worker-Error"

// DefaultShardPath is the URL path a worker daemon serves shard requests on.
const DefaultShardPath = "/shard"

// HTTPTransport runs each shard on a remote worker daemon (cmd/sweepworker):
// Start POSTs the ShardSpec as JSON to hosts[shard mod len(hosts)] and the
// response body is the worker's NDJSON stream.  Kill maps to cancelling the
// per-request context, which tears the connection down mid-stream — the
// closest HTTP analogue of SIGKILL — and the coordinator's stall detection,
// retry budget and seeded re-queue work unchanged on top.
type HTTPTransport struct {
	// Hosts is the static worker list, as base URLs ("http://host:port") or
	// bare host:port pairs (http:// is assumed).  Shard i is served by
	// Hosts[i mod len(Hosts)], so fewer hosts than shards just means hosts
	// serve several shards concurrently.
	Hosts []string
	// Path is the shard endpoint on each host; empty means DefaultShardPath.
	Path string
	// ConnectTimeout bounds dialing a worker host (default 5s); a refused
	// or unreachable host fails the spawn, which the coordinator charges
	// against the shard's attempt budget like any other failed attempt.
	ConnectTimeout time.Duration
	// HeaderTimeout bounds the wait for the response headers (default 30s),
	// which is how long Start may block the coordinator's main loop.
	HeaderTimeout time.Duration
	// Client overrides the HTTP client (nil builds one from the timeouts).
	Client *http.Client

	once   sync.Once
	client *http.Client
}

// httpClient resolves the client once, honoring the configured timeouts.
func (t *HTTPTransport) httpClient() *http.Client {
	t.once.Do(func() {
		if t.Client != nil {
			t.client = t.Client
			return
		}
		connect := t.ConnectTimeout
		if connect <= 0 {
			connect = 5 * time.Second
		}
		header := t.HeaderTimeout
		if header <= 0 {
			header = 30 * time.Second
		}
		t.client = &http.Client{Transport: &http.Transport{
			DialContext:           (&net.Dialer{Timeout: connect}).DialContext,
			ResponseHeaderTimeout: header,
		}}
	})
	return t.client
}

// Start implements Transport.
func (t *HTTPTransport) Start(ctx context.Context, spec ShardSpec) (Worker, error) {
	if len(t.Hosts) == 0 {
		return nil, errors.New("dist: HTTPTransport needs at least one host")
	}
	host := t.Hosts[spec.Index%len(t.Hosts)]
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("dist: encoding shard %s spec: %w", spec, err)
	}
	path := t.Path
	if path == "" {
		path = DefaultShardPath
	}
	// The request context outlives Start: it is the worker's whole lifetime,
	// and cancelling it is Kill.
	rctx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, joinHostPath(host, path), bytes.NewReader(body))
	if err != nil {
		cancel()
		return nil, fmt.Errorf("dist: shard %s request to %s: %w", spec, host, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.httpClient().Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("dist: shard %s to %s: %w", spec, host, err)
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("dist: shard %s to %s: %s: %s", spec, host, resp.Status, bytes.TrimSpace(msg))
	}
	return &httpWorker{resp: resp, cancel: cancel}, nil
}

// joinHostPath builds the shard URL, defaulting the scheme to http.
func joinHostPath(host, path string) string {
	if !strings.Contains(host, "://") {
		host = "http://" + host
	}
	return strings.TrimRight(host, "/") + path
}

// httpWorker is one in-flight shard request.
type httpWorker struct {
	resp   *http.Response
	cancel context.CancelFunc

	mu     sync.Mutex
	killed bool
}

// Output implements Worker: the chunked response body is the NDJSON stream.
func (w *httpWorker) Output() io.Reader { return w.resp.Body }

// Wait implements Worker.  It is called after the reader has drained Output;
// a bounded extra drain reaches EOF when only the trailer boundary remains,
// making the worker's error trailer visible, and then the request is
// released.  A worker still streaming megabytes after its reader gave up is
// simply cancelled.
func (w *httpWorker) Wait() error {
	io.Copy(io.Discard, io.LimitReader(w.resp.Body, 64<<10))
	w.cancel()
	w.resp.Body.Close()
	w.mu.Lock()
	killed := w.killed
	w.mu.Unlock()
	if killed {
		return errors.New("dist: http worker killed")
	}
	if msg := w.resp.Trailer.Get(workerErrTrailer); msg != "" {
		return fmt.Errorf("dist: http worker: %s", msg)
	}
	return nil
}

// Kill implements Worker: cancelling the request context aborts the
// connection, so the reader sees a transport error instead of a clean EOF —
// exactly what a crashed remote worker would look like.
func (w *httpWorker) Kill() error {
	w.mu.Lock()
	w.killed = true
	w.mu.Unlock()
	w.cancel()
	return nil
}

// ServeHTTP implements http.Handler: cmd/sweepworker mounts it on
// DefaultShardPath.  Each POST carries a ShardSpec and the response is
// Serve's stream, flushed line by line so the coordinator's stall detection
// sees liveness.  Request cancellation (client gone, coordinator Kill)
// cancels the evaluation through the engine's ordinary context path.
func (s *WorkerServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "shard requests are POST", http.StatusMethodNotAllowed)
		return
	}
	if s.Source == nil {
		http.Error(w, "worker has no job source configured", http.StatusInternalServerError)
		return
	}
	spec, err := DecodeShardSpec(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Trailer", workerErrTrailer)
	w.WriteHeader(http.StatusOK)
	var out io.Writer = w
	if f, ok := w.(http.Flusher); ok {
		out = flushWriter{w, f}
	}
	if err := s.Serve(r.Context(), spec, out); err != nil {
		// Headers are long sent; the trailer is the only channel left.
		w.Header().Set(workerErrTrailer, err.Error())
	}
}

// flushWriter flushes after every Write.  Serve's encoder writes each NDJSON
// line with exactly one Write, so every line leaves as soon as it is encoded.
type flushWriter struct {
	io.Writer
	f http.Flusher
}

func (w flushWriter) Write(p []byte) (int, error) {
	n, err := w.Writer.Write(p)
	w.f.Flush()
	return n, err
}
