package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"github.com/gpusampling/sieve/api"
)

func TestSplitPeers(t *testing.T) {
	got := SplitPeers(" http://a:1/, ,http://b:2,http://a:1,,")
	want := []string{"http://a:1", "http://b:2"}
	if len(got) != len(want) {
		t.Fatalf("SplitPeers = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SplitPeers = %v, want %v", got, want)
		}
	}
}

func TestNewRingValidation(t *testing.T) {
	if r, err := newRing("", nil); err != nil || r != nil {
		t.Fatalf("no peers: ring=%v err=%v, want nil,nil", r, err)
	}
	if r, err := newRing("http://a:1", []string{"http://a:1/"}); err != nil || r != nil {
		t.Fatalf("self-only list: ring=%v err=%v, want nil,nil (single node)", r, err)
	}
	if _, err := newRing("", []string{"http://b:2"}); err == nil {
		t.Fatal("peers without self accepted")
	}
	if _, err := newRing("http://a:1", []string{"b:2"}); err == nil {
		t.Fatal("schemeless peer URL accepted")
	}
}

// TestRingOwnershipProperties checks the consistent-hash ring: ownership is
// deterministic and identical however the member list is ordered, spread is
// reasonably even, and removing one node only remaps that node's keys.
func TestRingOwnershipProperties(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:2", "http://c:3"}
	r1, err := newRing(nodes[0], nodes[1:])
	if err != nil {
		t.Fatal(err)
	}
	r2, err := newRing(nodes[2], nodes[:2]) // same set, different self/order
	if err != nil {
		t.Fatal(err)
	}

	const keys = 3000
	counts := map[string]int{}
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("plan-%d", i)
		o := r1.owner(k)
		if o2 := r2.owner(k); o2 != o {
			t.Fatalf("replicas disagree on owner of %s: %s vs %s", k, o, o2)
		}
		counts[o]++
	}
	for _, n := range nodes {
		if counts[n] < keys/10 {
			t.Fatalf("node %s owns %d of %d keys — ring badly unbalanced: %v", n, counts[n], keys, counts)
		}
	}

	// Consistency: dropping node c remaps only c's keys.
	r3, err := newRing(nodes[0], nodes[1:2])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("plan-%d", i)
		before := r1.owner(k)
		after := r3.owner(k)
		if before != nodes[2] && after != before {
			t.Fatalf("key %s moved %s → %s though its owner never left", k, before, after)
		}
	}
}

func TestNilRingOwnsNothingElsewhere(t *testing.T) {
	var r *ring
	if o := r.owner("k"); o != "" {
		t.Fatalf("nil ring owner = %q", o)
	}
	if o, ok := r.ownedElsewhere("k"); ok || o != "" {
		t.Fatal("nil ring claims remote ownership")
	}
}

// twoReplicas starts two peered servers and returns them with their URLs.
func twoReplicas(t *testing.T, cfg Config) (a, b *Server, aURL, bURL string) {
	t.Helper()
	a, b = New(cfg), New(cfg)
	tsA := httptest.NewServer(a.Handler())
	tsB := httptest.NewServer(b.Handler())
	t.Cleanup(tsA.Close)
	t.Cleanup(tsB.Close)
	if err := a.SetPeers(tsA.URL, []string{tsB.URL}); err != nil {
		t.Fatal(err)
	}
	if err := b.SetPeers(tsB.URL, []string{tsA.URL}); err != nil {
		t.Fatal(err)
	}
	return a, b, tsA.URL, tsB.URL
}

// planIDFor computes the content hash a CSV request resolves to, so tests
// can pick the owning replica deterministically.
func planIDFor(t *testing.T, srv *Server, csv string) string {
	t.Helper()
	rv, err := srv.resolve(&api.SampleRequest{ProfileCSV: csv})
	if err != nil {
		t.Fatal(err)
	}
	return rv.key("sample")
}

// TestPeerPlanFill is the acceptance check for shard routing: a plan
// computed on one replica is served by the other via GET /v1/plans/{id} —
// the non-owner fetches from the owner and fills its local cache.
func TestPeerPlanFill(t *testing.T) {
	a, b, aURL, bURL := twoReplicas(t, Config{})
	csv := testCSV()
	id := planIDFor(t, a, csv)

	owner, other := aURL, bURL
	ownerSrv, otherSrv := a, b
	if a.shardRing().owner(id) == bURL {
		owner, other = bURL, aURL
		ownerSrv, otherSrv = b, a
	}

	status, body := postCSV(t, owner+"/v1/sample", csv)
	if status != http.StatusOK {
		t.Fatalf("owner POST status %d", status)
	}
	var env sampleEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.PlanID != id {
		t.Fatalf("plan id %s, want %s", env.PlanID, id)
	}

	// The non-computing replica serves the plan by fetching from the owner.
	var got sampleEnvelope
	if status := getJSON(t, other+"/v1/plans/"+id, &got); status != http.StatusOK {
		t.Fatalf("non-owner plan GET status %d, want 200", status)
	}
	if !got.Cached || string(got.Plan) != string(env.Plan) {
		t.Fatal("peer-filled plan is not byte-identical to the owner's")
	}
	if otherSrv.metrics.PeerFills.Value() != 1 {
		t.Fatalf("non-owner peer_fills = %d, want 1", otherSrv.metrics.PeerFills.Value())
	}
	if otherSrv.metrics.Computations.Value() != 0 {
		t.Fatalf("non-owner computed %d plans, want 0", otherSrv.metrics.Computations.Value())
	}
	if ownerSrv.metrics.Computations.Value() != 1 {
		t.Fatalf("owner computations = %d, want 1", ownerSrv.metrics.Computations.Value())
	}

	// Second GET on the non-owner is a purely local hit (already filled).
	if status := getJSON(t, other+"/v1/plans/"+id, &got); status != http.StatusOK {
		t.Fatalf("second non-owner GET status %d", status)
	}
	if otherSrv.metrics.PeerFills.Value() != 1 {
		t.Fatalf("peer_fills grew to %d on a local hit", otherSrv.metrics.PeerFills.Value())
	}
}

// TestSampleProxiedToOwner: a POST /v1/sample landing on the non-owner is
// proxied to the owning replica (which computes exactly once) and the
// response fills the non-owner's cache on the way through.
func TestSampleProxiedToOwner(t *testing.T) {
	a, b, aURL, bURL := twoReplicas(t, Config{})
	csv := testCSV()
	id := planIDFor(t, a, csv)

	nonOwnerURL := aURL
	ownerSrv, nonOwnerSrv := b, a
	if a.shardRing().owner(id) == aURL {
		nonOwnerURL = bURL
		ownerSrv, nonOwnerSrv = a, b
	}

	status, body := postCSV(t, nonOwnerURL+"/v1/sample", csv)
	if status != http.StatusOK {
		t.Fatalf("proxied POST status %d: %s", status, body)
	}
	var env sampleEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.PlanID != id {
		t.Fatalf("proxied plan id %s, want %s", env.PlanID, id)
	}
	if ownerSrv.metrics.Computations.Value() != 1 || nonOwnerSrv.metrics.Computations.Value() != 0 {
		t.Fatalf("computations owner/non-owner = %d/%d, want 1/0",
			ownerSrv.metrics.Computations.Value(), nonOwnerSrv.metrics.Computations.Value())
	}
	if nonOwnerSrv.metrics.PeerProxied.Value() != 1 || nonOwnerSrv.metrics.PeerFills.Value() != 1 {
		t.Fatalf("non-owner peer_proxied/peer_fills = %d/%d, want 1/1",
			nonOwnerSrv.metrics.PeerProxied.Value(), nonOwnerSrv.metrics.PeerFills.Value())
	}

	// The proxy response filled the non-owner's cache: the next identical
	// POST there is a local hit, no second proxy.
	status, body = postCSV(t, nonOwnerURL+"/v1/sample", csv)
	if status != http.StatusOK {
		t.Fatalf("second POST status %d", status)
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if !env.Cached {
		t.Fatal("second POST on non-owner missed its peer-filled cache")
	}
	if nonOwnerSrv.metrics.PeerProxied.Value() != 1 {
		t.Fatalf("peer_proxied = %d after local hit, want still 1", nonOwnerSrv.metrics.PeerProxied.Value())
	}
}

// thetaOwnedBy searches for a θ whose resolved request hashes to wantOwner
// on srv's ring, so routing tests stay deterministic across the random
// httptest ports that shape the ring. With two members each θ has ~1/2
// chance, so 64 candidates cannot plausibly all miss.
func thetaOwnedBy(t *testing.T, srv *Server, csv, wantOwner string) (theta string, id string) {
	t.Helper()
	for i := 30; i < 94; i++ {
		theta = fmt.Sprintf("0.%d", i)
		f, err := strconv.ParseFloat(theta, 64)
		if err != nil {
			t.Fatal(err)
		}
		rv, err := srv.resolve(&api.SampleRequest{ProfileCSV: csv, Options: api.RequestOptions{Theta: f}})
		if err != nil {
			t.Fatal(err)
		}
		id = rv.key("sample")
		if srv.shardRing().owner(id) == wantOwner {
			return theta, id
		}
	}
	t.Fatal("no theta in [0.30, 0.93] hashes to the desired owner")
	return "", ""
}

// TestForwardedRequestServedLocally pins loop prevention: a request carrying
// the forwarded header is served where it lands, never re-proxied, even when
// the ring says another replica owns it.
func TestForwardedRequestServedLocally(t *testing.T) {
	a, _, aURL, bURL := twoReplicas(t, Config{})
	csv := testCSV()
	theta, _ := thetaOwnedBy(t, a, csv, bURL) // B owns; A is the non-owner

	req, err := http.NewRequest(http.MethodPost, aURL+"/v1/sample?theta="+theta, strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/csv")
	req.Header.Set(forwardedHeader, bURL)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded POST status %d", resp.StatusCode)
	}
	if a.metrics.Computations.Value() != 1 || a.metrics.PeerProxied.Value() != 0 {
		t.Fatalf("forwarded request not served locally: computations=%d proxied=%d",
			a.metrics.Computations.Value(), a.metrics.PeerProxied.Value())
	}
}

// TestDeadPeerDegradesToLocal: when the owning replica is unreachable, the
// receiving replica computes locally instead of failing the request, and a
// plan GET answers 404 like a single cold node — not a 5xx.
func TestDeadPeerDegradesToLocal(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	// A peer that is already gone: grab a URL, then close the listener.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	if err := srv.SetPeers(ts.URL, []string{deadURL}); err != nil {
		t.Fatal(err)
	}

	csv := testCSV()
	theta, id := thetaOwnedBy(t, srv, csv, deadURL)
	status, body := postCSV(t, ts.URL+"/v1/sample?theta="+theta, csv)
	if status != http.StatusOK {
		t.Fatalf("POST with dead owner status %d: %s", status, body)
	}
	if srv.metrics.Computations.Value() != 1 {
		t.Fatalf("computations = %d, want 1 (local fallback)", srv.metrics.Computations.Value())
	}
	// The locally-computed plan is cached and servable here.
	var env sampleEnvelope
	if status := getJSON(t, ts.URL+"/v1/plans/"+id, &env); status != http.StatusOK {
		t.Fatalf("fallback plan not cached locally: %d", status)
	}

	// An uncached id owned by the dead peer: 404, not an error surface.
	_, unknown := thetaOwnedBy(t, srv, csv+"kern_x,96,96,128,2e6\n", deadURL)
	var errDoc map[string]string
	if status := getJSON(t, ts.URL+"/v1/plans/"+unknown, &errDoc); status != http.StatusNotFound {
		t.Fatalf("plan GET with dead owner status %d, want 404", status)
	}
}
