package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/gpusampling/sieve/api"
)

// prettyEnvelope renders a plan envelope the way a misbehaving or
// differently-built owner might: indented, HTML characters unescaped.
func prettyEnvelope(t *testing.T, id string, cached bool, doc []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "    ")
	if err := enc.Encode(api.PlanEnvelope{PlanID: id, Cached: cached, Plan: doc}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPeerFillsAreNormalized: an owner that answers indented envelopes
// still fills the non-owner with the compact plan bytes a local computation
// stores, on both fill paths (the proxied POST and the plan GET), so the
// non-owner's later hits serve exactly the local bytes. A plan that is not a
// JSON object fills nothing.
func TestPeerFillsAreNormalized(t *testing.T) {
	csv := testCSV()
	a := New(Config{})
	tsA := httptest.NewServer(a.Handler())
	t.Cleanup(tsA.Close)

	// docs maps each plan id the fake owner knows to the plan it serves.
	var mu sync.Mutex
	docs := map[string][]byte{}
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var id string
		switch r.Method {
		case http.MethodPost:
			var req api.SampleRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			rv, err := a.resolve(&req)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			id = rv.key("sample")
		default:
			id = strings.TrimPrefix(r.URL.Path, "/v1/plans/")
		}
		mu.Lock()
		doc, ok := docs[id]
		mu.Unlock()
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(prettyEnvelope(t, id, r.Method == http.MethodGet, doc))
	}))
	t.Cleanup(owner.Close)
	if err := a.SetPeers(tsA.URL, []string{owner.URL}); err != nil {
		t.Fatal(err)
	}

	// Three θs the fake owner owns, each with the compact plan a standalone
	// server computes for it.
	local := httptest.NewServer(New(Config{}).Handler())
	t.Cleanup(local.Close)
	plans := map[string][]byte{}
	var thetas, ids []string
	for i := 30; i < 94 && len(ids) < 3; i++ {
		theta := fmt.Sprintf("0.%d", i)
		f, err := strconv.ParseFloat(theta, 64)
		if err != nil {
			t.Fatal(err)
		}
		rv, err := a.resolve(&api.SampleRequest{ProfileCSV: csv, Options: api.RequestOptions{Theta: f}})
		if err != nil {
			t.Fatal(err)
		}
		id := rv.key("sample")
		if a.shardRing().owner(id) != owner.URL {
			continue
		}
		status, body := postCSV(t, local.URL+"/v1/sample?theta="+theta, csv)
		var env api.PlanEnvelope
		if status != http.StatusOK || json.Unmarshal(body, &env) != nil || env.PlanID != id {
			t.Fatalf("standalone POST theta=%s: status %d, body %.200s", theta, status, body)
		}
		thetas, ids = append(thetas, theta), append(ids, id)
		plans[id] = env.Plan
		mu.Lock()
		docs[id] = env.Plan
		mu.Unlock()
	}
	if len(ids) < 3 {
		t.Fatal("fewer than three thetas in [0.30, 0.93] hash to the fake owner")
	}
	wantHit := func(id string) []byte {
		return appendPlanEnvelope(nil, id, true, false, plans[id])
	}

	// Proxied POST: relayed verbatim, the fill is compact.
	id := ids[0]
	status, body := postCSV(t, tsA.URL+"/v1/sample?theta="+thetas[0], csv)
	if status != http.StatusOK || !bytes.Contains(body, []byte("\n    ")) {
		t.Fatalf("proxied POST: status %d, want the owner's indented body relayed; got %.200s", status, body)
	}
	status, body = postCSV(t, tsA.URL+"/v1/sample?theta="+thetas[0], csv)
	if status != http.StatusOK || !bytes.Equal(body, wantHit(id)) {
		t.Fatalf("hit after proxied fill: status %d\n got %.300s\nwant %.300s", status, body, wantHit(id))
	}

	// Plan GET: fetched, filled compact, answered with the stored envelope.
	id = ids[1]
	for i := 0; i < 2; i++ { // the fill, then a local hit
		status, body = getBody(t, tsA.URL+"/v1/plans/"+id)
		if status != http.StatusOK || !bytes.Equal(body, wantHit(id)) {
			t.Fatalf("plan GET %d: status %d\n got %.300s\nwant %.300s", i, status, body, wantHit(id))
		}
	}
	if got := a.metrics.PeerFills.Value(); got != 2 {
		t.Fatalf("peer_fills = %d, want 2", got)
	}
	if got := a.metrics.Computations.Value(); got != 0 {
		t.Fatalf("non-owner computed %d plans, want 0", got)
	}

	// An owner answering a plan that is not a JSON object fills nothing: the
	// GET answers 404 as a single cold node would.
	id = ids[2]
	mu.Lock()
	docs[id] = []byte(`"not a plan"`)
	mu.Unlock()
	if status, body = getBody(t, tsA.URL+"/v1/plans/"+id); status != http.StatusNotFound {
		t.Fatalf("GET of a non-object plan: status %d, body %.200s; want 404", status, body)
	}
	if _, ok := a.cache.get(id); ok || a.metrics.PeerFills.Value() != 2 {
		t.Fatalf("a non-object plan filled the cache (peer_fills %d)", a.metrics.PeerFills.Value())
	}
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestPeerTransportReusesConnections: proxied misses to one owner ride the
// peer client's idle pool instead of dialing per request, so sequential
// misses use one connection.
func TestPeerTransportReusesConnections(t *testing.T) {
	var newConns atomic.Int64
	owner := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		// A plan id that matches nothing: the proxy relays the answer but
		// fills nothing, so every repeat of the request misses again.
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, `{"plan_id":"elsewhere","cached":false,"plan":{}}`+"\n")
	}))
	owner.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			newConns.Add(1)
		}
	}
	owner.Start()
	t.Cleanup(owner.Close)

	a := New(Config{})
	tsA := httptest.NewServer(a.Handler())
	t.Cleanup(tsA.Close)
	if err := a.SetPeers(tsA.URL, []string{owner.URL}); err != nil {
		t.Fatal(err)
	}
	csv := testCSV()
	theta, _ := thetaOwnedBy(t, a, csv, owner.URL)
	const misses = 8
	for i := 0; i < misses; i++ {
		resp, err := http.Post(tsA.URL+"/v1/sample?theta="+theta, "text/csv", strings.NewReader(csv))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("proxied POST status %d, err %v: %s", resp.StatusCode, err, body)
		}
	}
	if got := newConns.Load(); got != 1 {
		t.Fatalf("%d sequential proxied misses opened %d connections to the owner, want 1", misses, got)
	}
	if got := a.metrics.PeerProxied.Value(); got != misses {
		t.Fatalf("peer_proxied = %d, want %d", got, misses)
	}
}

// levelRecorder is a slog.Handler that keeps every record's level and
// message, so tests can assert what a request logged and at which level.
type levelRecorder struct {
	mu   sync.Mutex
	recs []string // "<LEVEL> <message>"
}

func (h *levelRecorder) Enabled(context.Context, slog.Level) bool { return true }
func (h *levelRecorder) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *levelRecorder) WithGroup(string) slog.Handler            { return h }

func (h *levelRecorder) Handle(_ context.Context, r slog.Record) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.recs = append(h.recs, r.Level.String()+" "+r.Message)
	return nil
}

// take returns the records logged since the last take.
func (h *levelRecorder) take() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.recs
	h.recs = nil
	return out
}

// TestPeerPlanFetchLogLevels: a plan GET whose owner has evicted the plan
// (404) is an expected outcome and logs no WARN; an owner that fails (500)
// or answers a different plan_id still logs the fetch failure at WARN. Every
// case answers 404 to the client, as a cold single node would.
func TestPeerPlanFetchLogLevels(t *testing.T) {
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch id := strings.TrimPrefix(r.URL.Path, "/v1/plans/"); {
		case strings.HasPrefix(id, "evicted"):
			writeJSON(w, http.StatusNotFound, &api.Error{Message: "plan not cached"})
		case strings.HasPrefix(id, "broken"):
			writeJSON(w, http.StatusInternalServerError, &api.Error{Message: "boom"})
		default:
			w.Header().Set("Content-Type", "application/json")
			_, _ = io.WriteString(w, `{"plan_id":"elsewhere","cached":true,"plan":{}}`+"\n")
		}
	}))
	t.Cleanup(owner.Close)
	logs := &levelRecorder{}
	a := New(Config{Logger: slog.New(logs)})
	tsA := httptest.NewServer(a.Handler())
	t.Cleanup(tsA.Close)
	if err := a.SetPeers(tsA.URL, []string{owner.URL}); err != nil {
		t.Fatal(err)
	}
	// ownedID returns the first id with the given prefix the fake owner owns.
	ownedID := func(prefix string) string {
		for i := 0; i < 1000; i++ {
			if id := prefix + strconv.Itoa(i); a.shardRing().owner(id) == owner.URL {
				return id
			}
		}
		t.Fatalf("no %s id hashes to the fake owner", prefix)
		return ""
	}
	for _, tc := range []struct {
		prefix   string
		wantWarn bool
	}{{"evicted", false}, {"broken", true}, {"mismatched", true}} {
		id := ownedID(tc.prefix)
		if status, body := getBody(t, tsA.URL+"/v1/plans/"+id); status != http.StatusNotFound {
			t.Fatalf("%s: GET status %d, body %.200s; want 404", tc.prefix, status, body)
		}
		recs := logs.take()
		if slices.Contains(recs, "WARN peer plan fetch failed") != tc.wantWarn {
			t.Errorf("%s: logged %q; want a WARN fetch failure: %v", tc.prefix, recs, tc.wantWarn)
		}
		if !tc.wantWarn && !slices.Contains(recs, "DEBUG peer plan fetch failed") {
			t.Errorf("%s: logged %q; want the fetch failure at DEBUG", tc.prefix, recs)
		}
	}
}
