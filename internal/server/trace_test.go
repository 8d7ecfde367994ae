package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gpusampling/sieve/api"
	"github.com/gpusampling/sieve/client"
)

// storeTrace is a shorthand for filling a traceStore in unit tests.
func storeTrace(ts *traceStore, id string, durationNS int64) {
	ts.put(&requestTrace{id: id, durationNS: durationNS})
}

func TestTraceStoreBoundsAndOrdering(t *testing.T) {
	ts := newTraceStore(4)
	for i := 0; i < 6; i++ {
		storeTrace(ts, fmt.Sprintf("trace-%d", i), int64(i))
	}
	stored, recent, slowest := ts.list()
	if stored != 4 {
		t.Fatalf("stored = %d, want 4 (capacity bound)", stored)
	}
	// Traces 0 and 1 were overwritten by 4 and 5.
	if ts.get("trace-0") != nil || ts.get("trace-1") != nil {
		t.Fatal("overwritten traces still resident")
	}
	if got := ts.get("trace-5"); got == nil || got.durationNS != 5 {
		t.Fatalf("trace-5 not resident: %+v", got)
	}
	if recent[0].id != "trace-5" || recent[len(recent)-1].id != "trace-2" {
		t.Fatalf("recent order wrong: first %s last %s", recent[0].id, recent[len(recent)-1].id)
	}
	if slowest[0].id != "trace-5" || slowest[0].durationNS != 5 {
		t.Fatalf("slowest[0] = %s (%dns)", slowest[0].id, slowest[0].durationNS)
	}
}

func TestTraceStoreReusedIDReturnsNewest(t *testing.T) {
	ts := newTraceStore(8)
	storeTrace(ts, "dup", 1)
	storeTrace(ts, "dup", 2)
	if got := ts.get("dup"); got == nil || got.durationNS != 2 {
		t.Fatalf("get(dup) = %+v, want the newer entry", got)
	}
}

func TestTraceStoreNilSafe(t *testing.T) {
	var ts *traceStore
	ts.put(&requestTrace{id: "x"})
	if ts.get("x") != nil {
		t.Fatal("nil store returned a trace")
	}
	if stored, recent, slowest := ts.list(); stored != 0 || recent != nil || slowest != nil {
		t.Fatal("nil store listed traces")
	}
}

// findSpan returns the first span named name in the forest, depth-first.
func findSpan(spans []*api.TraceSpan, name string) *api.TraceSpan {
	for _, sp := range spans {
		if sp.Name == name {
			return sp
		}
		if c := findSpan(sp.Children, name); c != nil {
			return c
		}
	}
	return nil
}

// getTrace fetches one trace document over HTTP ("" id lists instead).
func getTrace(t *testing.T, baseURL, id string) (int, api.Trace) {
	t.Helper()
	var tr api.Trace
	status := getJSON(t, baseURL+"/debug/traces/"+id, &tr)
	return status, tr
}

// TestTracedSampleEndToEnd is the single-replica acceptance check for the
// tentpole: a traced cold-miss sample request yields a retrievable trace
// whose span tree and stage attribution cover the full serving path.
func TestTracedSampleEndToEnd(t *testing.T) {
	ts := newTestServer(t, Config{})
	id := strings.Repeat("ab", 16)

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sample", strings.NewReader(testCSV()))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/csv")
	req.Header.Set(api.TraceHeader, id+"-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sample status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(api.TraceHeader); got != id {
		t.Fatalf("response %s = %q, want the request id %q", api.TraceHeader, got, id)
	}

	status, tr := getTrace(t, ts.URL, id)
	if status != http.StatusOK {
		t.Fatalf("GET /debug/traces/%s status %d", id, status)
	}
	if tr.TraceID != id || tr.Method != http.MethodPost || tr.Path != "/v1/sample" || tr.Status != http.StatusOK {
		t.Fatalf("trace summary wrong: %+v", tr.TraceSummary)
	}
	if tr.DurationNS <= 0 {
		t.Fatalf("duration_ns = %d", tr.DurationNS)
	}
	// A cold miss touches every local stage.
	for _, stage := range []stage{stageDecode, stageCache, stageSlot, stageFlight, stageCompute, stageWrite} {
		if _, ok := tr.StageNS[stage.String()]; !ok {
			t.Fatalf("stage_ns missing %q: %v", stage, tr.StageNS)
		}
	}
	if _, ok := tr.StageNS[stageProxy.String()]; ok {
		t.Fatalf("single-node trace attributes proxy time: %v", tr.StageNS)
	}

	root := findSpan(tr.Spans, "request")
	if root == nil {
		t.Fatal("no request root span")
	}
	flight := findSpan(root.Children, stageFlight.String())
	if flight == nil {
		t.Fatal("no flight span under request")
	}
	// The leader's slot and compute stages nest inside its flight span.
	if findSpan(flight.Children, stageSlot.String()) == nil || findSpan(flight.Children, stageCompute.String()) == nil {
		t.Fatal("leader flight span missing slot/compute children")
	}
	comp := findSpan(flight.Children, stageCompute.String())
	// The sampling pipeline's own span subtree (core.stratify on the default
	// path, sampler.plan for the other methods) nests inside the compute stage.
	if findSpan(comp.Children, "core.stratify") == nil {
		t.Fatal("pipeline subtree not nested under the compute stage")
	}
	if pid, _ := comp.Attrs["plan_id"].(string); pid == "" {
		t.Fatal("compute span has no plan_id attr")
	}

	// Chrome trace-event export of the same tree.
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if status := getJSON(t, ts.URL+"/debug/traces/"+id+"?format=chrome", &chrome); status != http.StatusOK {
		t.Fatalf("chrome export status %d", status)
	}
	names := make(map[string]bool)
	for _, ev := range chrome.TraceEvents {
		names[ev.Name] = true
	}
	if !names["request"] || !names[stageCompute.String()] {
		t.Fatalf("chrome export missing spans: %v", names)
	}

	var errDoc api.Error
	if status := getJSON(t, ts.URL+"/debug/traces/"+strings.Repeat("ff", 16), &errDoc); status != http.StatusNotFound {
		t.Fatalf("unknown trace id status %d, want 404", status)
	}
}

// TestTracedStreamSample: a sampled stream-mode request plans through the
// method table like every other, so its span tree reads compute →
// sampler.plan → core.stratify_stream, and sampler.plan's rows attribute
// counts the rows the stream ingested although the CSV body was never
// parsed into a table.
func TestTracedStreamSample(t *testing.T) {
	ts := newTestServer(t, Config{})
	id := strings.Repeat("cd", 16)
	csv := testCSV()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sample?stream=true&reservoir_size=2", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/csv")
	req.Header.Set(api.TraceHeader, id+"-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var env api.PlanEnvelope
	err = json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("stream sample: status %d, err %v", resp.StatusCode, err)
	}
	var plan api.Plan
	if err := json.Unmarshal(env.Plan, &plan); err != nil || !plan.Sampled {
		t.Fatalf("a 2-row reservoir should sample the test profile (sampled %v, err %v)", plan.Sampled, err)
	}

	status, tr := getTrace(t, ts.URL, id)
	if status != http.StatusOK {
		t.Fatalf("GET /debug/traces/%s status %d", id, status)
	}
	child := func(sp *api.TraceSpan, name string) *api.TraceSpan {
		t.Helper()
		for _, c := range sp.Children {
			if c.Name == name {
				return c
			}
		}
		t.Fatalf("span %s has no %s child", sp.Name, name)
		return nil
	}
	comp := findSpan(tr.Spans, stageCompute.String())
	if comp == nil {
		t.Fatal("no compute span")
	}
	sp := child(comp, "sampler.plan")
	child(sp, "core.stratify_stream")
	rows := strings.Count(csv, "\n") - 1 // minus the header
	if got, _ := sp.Attrs["rows"].(float64); int(got) != rows {
		t.Errorf("sampler.plan rows = %v, want the %d ingested rows", sp.Attrs["rows"], rows)
	}
}

// TestServerMintsTraceID: an untraced request still gets a trace — the server
// mints the id and reveals it on the response header.
func TestServerMintsTraceID(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/sample", "text/csv", strings.NewReader(testCSV()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get(api.TraceHeader)
	if len(id) != 32 {
		t.Fatalf("minted trace id %q, want 32 hex digits", id)
	}
	if status, _ := getTrace(t, ts.URL, id); status != http.StatusOK {
		t.Fatalf("minted trace not retrievable: %d", status)
	}
}

func TestTracesListEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{})
	for i := 0; i < 3; i++ {
		status, _ := postCSV(t, fmt.Sprintf("%s/v1/sample?theta=0.%d", ts.URL, i+3), testCSV())
		if status != http.StatusOK {
			t.Fatalf("sample %d status %d", i, status)
		}
	}
	var list api.TraceList
	if status := getJSON(t, ts.URL+"/debug/traces", &list); status != http.StatusOK {
		t.Fatalf("list status %d", status)
	}
	if list.Stored != 3 || list.Capacity != 256 {
		t.Fatalf("stored=%d capacity=%d, want 3/256", list.Stored, list.Capacity)
	}
	if len(list.Recent) != 3 || len(list.Slowest) != 3 {
		t.Fatalf("recent=%d slowest=%d, want 3/3", len(list.Recent), len(list.Slowest))
	}
	for _, row := range list.Recent {
		if row.TraceID == "" || row.Path != "/v1/sample" || row.Status != http.StatusOK {
			t.Fatalf("bad listing row: %+v", row)
		}
	}
	// Slowest is duration-sorted.
	for i := 1; i < len(list.Slowest); i++ {
		if list.Slowest[i].DurationNS > list.Slowest[i-1].DurationNS {
			t.Fatalf("slowest not sorted: %d > %d at %d", list.Slowest[i].DurationNS, list.Slowest[i-1].DurationNS, i)
		}
	}
}

// TestTwoReplicaTraceSpansBothReplicas is the cluster acceptance check: one
// trace id names a proxied request on every replica it touched — the
// non-owner's trace attributes the hop to the proxy stage, the owner's trace
// holds the compute.
func TestTwoReplicaTraceSpansBothReplicas(t *testing.T) {
	a, _, aURL, bURL := twoReplicas(t, Config{})
	csv := testCSV()
	id := planIDFor(t, a, csv)

	ownerURL, otherURL := aURL, bURL
	if a.shardRing().owner(id) == bURL {
		ownerURL, otherURL = bURL, aURL
	}

	tid := strings.Repeat("cd", 16)
	req, err := http.NewRequest(http.MethodPost, otherURL+"/v1/sample", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/csv")
	req.Header.Set(api.TraceHeader, tid+"-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied sample status %d", resp.StatusCode)
	}

	status, front := getTrace(t, otherURL, tid)
	if status != http.StatusOK {
		t.Fatalf("non-owner trace status %d", status)
	}
	status, back := getTrace(t, ownerURL, tid)
	if status != http.StatusOK {
		t.Fatalf("owner trace status %d (trace id did not propagate)", status)
	}

	if front.TraceID != tid || back.TraceID != tid {
		t.Fatalf("trace ids diverge: front %s back %s", front.TraceID, back.TraceID)
	}
	if front.Replica == back.Replica {
		t.Fatalf("both trace documents claim replica %q", front.Replica)
	}
	if _, ok := front.StageNS[stageProxy.String()]; !ok {
		t.Fatalf("non-owner trace has no proxy stage: %v", front.StageNS)
	}
	if _, ok := front.StageNS[stageCompute.String()]; ok {
		t.Fatalf("non-owner computed a proxied plan: %v", front.StageNS)
	}
	if _, ok := back.StageNS[stageCompute.String()]; !ok {
		t.Fatalf("owner trace has no compute stage: %v", back.StageNS)
	}
	// The owner's trace records who forwarded the request.
	ownerRoot := findSpan(back.Spans, "request")
	if ownerRoot == nil {
		t.Fatal("owner trace has no request span")
	}
	if fwd, _ := ownerRoot.Attrs["forwarded_by"].(string); fwd == "" {
		t.Fatal("owner request span missing forwarded_by attr")
	}
	proxy := findSpan(front.Spans, stageProxy.String())
	if proxy == nil {
		t.Fatal("non-owner trace has no proxy span")
	}
	if owner, _ := proxy.Attrs["owner"].(string); owner != ownerURL {
		t.Fatalf("proxy span owner = %q, want %q", owner, ownerURL)
	}
}

// TestCoalescedStormTracing pins follower linking: a 50-burst of identical
// requests under distinct trace ids yields exactly one trace holding the
// compute span, and 49 follower traces whose flight span links to the
// leader's trace id instead of duplicating the compute subtree.
func TestCoalescedStormTracing(t *testing.T) {
	const burst = 50
	srv := New(Config{})
	gate := make(chan struct{})
	srv.preCompute = func(string) { <-gate }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	csv := testCSV()

	ids := make([]string, burst)
	for i := range ids {
		ids[i] = fmt.Sprintf("%032x", i+1)
	}
	var wg sync.WaitGroup
	statuses := make([]int, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sample", strings.NewReader(csv))
			if err != nil {
				return
			}
			req.Header.Set("Content-Type", "text/csv")
			req.Header.Set(api.TraceHeader, ids[i]+"-01")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return
			}
			resp.Body.Close()
			statuses[i] = resp.StatusCode
		}(i)
	}
	waitFor(t, "49 followers to coalesce", func() bool {
		return srv.metrics.Coalesced.Value() == burst-1
	})
	close(gate)
	wg.Wait()

	var computeID string
	followers := 0
	for i, id := range ids {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d status %d", i, statuses[i])
		}
		tr := srv.traces.get(id)
		if tr == nil {
			t.Fatalf("trace %s not stored", id)
		}
		spans := toAPISpans(tr.report.Spans)
		flight := findSpan(spans, stageFlight.String())
		if flight == nil {
			t.Fatalf("trace %s has no flight span", id)
		}
		if findSpan(spans, stageCompute.String()) != nil {
			if computeID != "" {
				t.Fatalf("both %s and %s hold compute spans, want exactly one leader", computeID, id)
			}
			computeID = id
			continue
		}
		leader, _ := flight.Attrs["leader_trace"].(string)
		if co, _ := flight.Attrs["coalesced"].(bool); !co || leader == "" {
			t.Fatalf("follower %s flight attrs = %v, want coalesced + leader_trace", id, flight.Attrs)
		}
		followers++
		if leader != computeID && computeID != "" && srv.traces.get(leader) == nil {
			t.Fatalf("follower %s links to unknown leader %s", id, leader)
		}
	}
	if computeID == "" || followers != burst-1 {
		t.Fatalf("leader=%q followers=%d, want one leader and %d followers", computeID, followers, burst-1)
	}
	// Every follower must name the one trace that actually computed.
	for _, id := range ids {
		if id == computeID {
			continue
		}
		flight := findSpan(toAPISpans(srv.traces.get(id).report.Spans), stageFlight.String())
		if leader, _ := flight.Attrs["leader_trace"].(string); leader != computeID {
			t.Fatalf("follower %s leader_trace = %s, want %s", id, leader, computeID)
		}
	}
}

// sendTraced sends one request with trace as its api.TraceHeader ("" sends
// none) and returns the status and the echoed trace id.
func sendTraced(t *testing.T, method, url, contentType, body, trace string) (status int, echoed string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if trace != "" {
		req.Header.Set(api.TraceHeader, trace)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get(api.TraceHeader)
}

// waitTraces waits until srv has finished n requests: a client can read a
// response before its handler publishes the trace.
func waitTraces(t *testing.T, srv *Server, n uint64) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d finished traces", n), func() bool { return srv.traces.seq.Load() >= n })
}

// sampledTrees counts the span trees resident in srv's sampled ring.
func sampledTrees(srv *Server) int {
	n := 0
	for i := range srv.traces.sampled.slots {
		if srv.traces.sampled.slots[i].Load() != nil {
			n++
		}
	}
	return n
}

func TestSampledFlag(t *testing.T) {
	id := strings.Repeat("ab", 16)
	for v, want := range map[string]bool{
		id + "-01":        true,
		id + "-03":        true,
		id + "-00":        false,
		id + "-02":        false,
		id:                false,
		id + "-zz":        false,
		id + "-01-ext":    true,
		" " + id + "-01 ": true,
	} {
		if got := sampledFlag(v); got != want {
			t.Errorf("sampledFlag(%q) = %v, want %v", v, got, want)
		}
	}
}

// hopRecorder wraps a replica's handler and records, for every request
// another replica forwarded to it, the api.TraceHeader the hop carried and
// the one the replica echoed.
type hopRecorder struct {
	next    http.Handler
	mu      sync.Mutex
	in, out []string
}

func (h *hopRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.next.ServeHTTP(w, r)
	if isForwarded(r) {
		h.mu.Lock()
		h.in = append(h.in, r.Header.Get(api.TraceHeader))
		h.out = append(h.out, w.Header().Get(api.TraceHeader))
		h.mu.Unlock()
	}
}

func (h *hopRecorder) hops() (in, out []string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.in...), append([]string(nil), h.out...)
}

// TestTwoReplicaUnsampledTraceStaysUnsampled: an unsampled request keeps one
// id on both replicas of a proxied sample and of a fetch-and-fill plan GET,
// each hop carries the id with the cleared flag, and neither replica keeps a
// span tree — only the per-request summaries.
func TestTwoReplicaUnsampledTraceStaysUnsampled(t *testing.T) {
	a, b := New(Config{}), New(Config{})
	recA, recB := &hopRecorder{next: a.Handler()}, &hopRecorder{next: b.Handler()}
	tsA, tsB := httptest.NewServer(recA), httptest.NewServer(recB)
	t.Cleanup(tsA.Close)
	t.Cleanup(tsB.Close)
	if err := a.SetPeers(tsA.URL, []string{tsB.URL}); err != nil {
		t.Fatal(err)
	}
	if err := b.SetPeers(tsB.URL, []string{tsA.URL}); err != nil {
		t.Fatal(err)
	}
	csv := testCSV()
	planID := planIDFor(t, a, csv)
	owner, other := a, b
	ownerURL, otherURL, ownerRec := tsA.URL, tsB.URL, recA
	if a.shardRing().owner(planID) == tsB.URL {
		owner, other = b, a
		ownerURL, otherURL, ownerRec = tsB.URL, tsA.URL, recB
	}

	// A proxied sample with no trace header: the front replica mints the id.
	status, sampleID := sendTraced(t, http.MethodPost, otherURL+"/v1/sample", "text/csv", csv, "")
	if status != http.StatusOK || !client.ValidTraceID(sampleID) {
		t.Fatalf("proxied sample: status %d, echoed id %q", status, sampleID)
	}
	// A fetch-and-fill plan GET under a caller's unsampled id: the plan was
	// computed on the owner, and the front replica has not seen it.
	other.cache = newPlanCache(other.cfg.CacheEntries)
	getID := strings.Repeat("e1", 16)
	status, echoed := sendTraced(t, http.MethodGet, otherURL+"/v1/plans/"+planID, "", "", getID+"-00")
	if status != http.StatusOK || echoed != getID {
		t.Fatalf("plan fetch: status %d, echoed id %q, want %q", status, echoed, getID)
	}

	waitTraces(t, owner, 2)
	waitTraces(t, other, 2)
	in, out := ownerRec.hops()
	wantIn := []string{sampleID + "-00", getID + "-00"}
	wantOut := []string{sampleID, getID}
	if strings.Join(in, " ") != strings.Join(wantIn, " ") || strings.Join(out, " ") != strings.Join(wantOut, " ") {
		t.Fatalf("owner hops carried %v and echoed %v, want %v and %v", in, out, wantIn, wantOut)
	}
	for _, u := range []string{ownerURL, otherURL} {
		for _, id := range []string{sampleID, getID} {
			status, tr := getTrace(t, u, id)
			if status != http.StatusOK || tr.TraceID != id || tr.Status != http.StatusOK {
				t.Fatalf("%s: summary of %s: status %d, %+v", u, id, status, tr.TraceSummary)
			}
			if len(tr.Spans) != 0 {
				t.Fatalf("%s: unsampled %s stored %d spans", u, id, len(tr.Spans))
			}
			if len(tr.StageNS) == 0 {
				t.Fatalf("%s: unsampled %s summary has no stage_ns", u, id)
			}
			var errDoc api.Error
			if status := getJSON(t, u+"/debug/traces/"+id+"?format=chrome", &errDoc); status != http.StatusNotFound {
				t.Fatalf("%s: chrome export of an unsampled trace: status %d, want 404", u, status)
			}
		}
	}
	if n, m := sampledTrees(owner), sampledTrees(other); n != 0 || m != 0 {
		t.Fatalf("span trees stored: owner %d, front %d, want none", n, m)
	}
}

// stageCounts reads the per-stage observation counts from /metrics.
func stageCounts(t *testing.T, baseURL string) map[string]string {
	t.Helper()
	counts := make(map[string]string)
	for _, line := range strings.Split(scrape(t, baseURL+"/metrics"), "\n") {
		if name, v, ok := strings.Cut(line, " "); ok && strings.HasPrefix(name, stageSecondsMetric+"_count{") {
			counts[name] = v
		}
	}
	return counts
}

// TestStageCountsIndependentOfSampling: a fixed request mix — miss, hit, a
// batch with a hit and a miss item, a coalesced join and a plan-lookup 404 —
// gives identical per-stage observation counts on /metrics whether it is
// sent sampled or unsampled, because the stage histograms are fed from the
// per-request stage array, not from span trees.
func TestStageCountsIndependentOfSampling(t *testing.T) {
	csv := testCSV()
	joinCSV := strings.ReplaceAll(csv, "kern_0", "kern_9")
	batch := `{"items":[{"profile_csv":` + strconv.Quote(csv) + `},{"profile_csv":` + strconv.Quote(csv) + `,"options":{"theta":0.6}}]}`
	mix := func(sampled bool) (map[string]string, int) {
		srv := New(Config{})
		joinID := planIDFor(t, srv, joinCSV)
		gate := make(chan struct{})
		srv.preCompute = func(id string) {
			if id == joinID {
				<-gate
			}
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		n := 0
		trace := func() string {
			n++
			if !sampled {
				return ""
			}
			return fmt.Sprintf("%032x-01", n)
		}
		for i, r := range []struct{ method, path, ct, body string }{
			{http.MethodPost, "/v1/sample", "text/csv", csv},                 // miss
			{http.MethodPost, "/v1/sample", "text/csv", csv},                 // hit
			{http.MethodPost, "/v1/batch", "application/json", batch},        // hit + miss items
			{http.MethodGet, "/v1/plans/" + strings.Repeat("0", 64), "", ""}, // 404
		} {
			want := http.StatusOK
			if r.method == http.MethodGet {
				want = http.StatusNotFound
			}
			if status, _ := sendTraced(t, r.method, ts.URL+r.path, r.ct, r.body, trace()); status != want {
				t.Fatalf("sampled=%v request %d: status %d, want %d", sampled, i, status, want)
			}
		}
		var wg sync.WaitGroup
		statuses := make([]int, 2)
		for i := range statuses {
			wg.Add(1)
			tv := trace()
			go func(i int) {
				defer wg.Done()
				statuses[i], _ = sendTraced(t, http.MethodPost, ts.URL+"/v1/sample", "text/csv", joinCSV, tv)
			}(i)
		}
		waitFor(t, "the join", func() bool { return srv.metrics.Coalesced.Value() == 1 })
		close(gate)
		wg.Wait()
		if statuses[0] != http.StatusOK || statuses[1] != http.StatusOK {
			t.Fatalf("sampled=%v coalesced pair statuses %v", sampled, statuses)
		}
		waitTraces(t, srv, uint64(n))
		return stageCounts(t, ts.URL), sampledTrees(srv)
	}

	sampledCounts, trees := mix(true)
	if trees != 6 {
		t.Fatalf("sampled mix kept %d span trees, want 6", trees)
	}
	unsampledCounts, trees := mix(false)
	if trees != 0 {
		t.Fatalf("unsampled mix kept %d span trees, want 0", trees)
	}
	for _, st := range []stage{stageDecode, stageCache, stageSlot, stageFlight, stageCompute, stageWrite} {
		if _, ok := sampledCounts[stageSecondsMetric+`_count{stage="`+st.String()+`"}`]; !ok {
			t.Fatalf("mix never entered stage %s: %v", st, sampledCounts)
		}
	}
	if fmt.Sprint(sampledCounts) != fmt.Sprint(unsampledCounts) {
		t.Fatalf("stage counts differ:\nsampled   %v\nunsampled %v", sampledCounts, unsampledCounts)
	}
}

// TestHeldLeaderTimeIsNotFlight: a flight leader held by preCompute spends
// the hold inside its own computation, so the hold is attributed to slot and
// compute, not to the leader's flight wait.
func TestHeldLeaderTimeIsNotFlight(t *testing.T) {
	const hold = 200 * time.Millisecond
	srv := New(Config{})
	srv.preCompute = func(string) { time.Sleep(hold) }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// Each request asks for its own theta, so each leads its own flight.
	for theta, trace := range []string{"", strings.Repeat("be", 16) + "-01"} {
		status, id := sendTraced(t, http.MethodPost, ts.URL+"/v1/sample?theta=0."+strconv.Itoa(3+theta), "text/csv", testCSV(), trace)
		if status != http.StatusOK {
			t.Fatalf("trace %q: status %d", trace, status)
		}
		waitTraces(t, srv, uint64(theta+1))
		_, tr := getTrace(t, ts.URL, id)
		slotCompute := time.Duration(tr.StageNS[stageSlot.String()] + tr.StageNS[stageCompute.String()])
		flight := time.Duration(tr.StageNS[stageFlight.String()])
		if slotCompute < hold || flight >= hold/2 {
			t.Fatalf("trace %q: slot+compute %v, flight %v; want the %v hold in slot+compute", trace, slotCompute, flight, hold)
		}
	}
}

// TestUnsampledWorkloadMissStoresNoTree: a workload-mode miss, whose span
// tree would hold one core.kernel span per kernel, stores only its summary
// when unsampled, so the trace store does not grow with workload size.
func TestUnsampledWorkloadMissStoresNoTree(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	status, id := sendTraced(t, http.MethodPost, ts.URL+"/v1/sample", "application/json", `{"workload":"lmc","scale":0.01}`, "")
	if status != http.StatusOK {
		t.Fatalf("workload miss status %d", status)
	}
	waitTraces(t, srv, 1)
	tr := srv.traces.get(id)
	if tr == nil || tr.report != nil || sampledTrees(srv) != 0 {
		t.Fatalf("unsampled workload miss: summary %v, kept a tree: %v", tr != nil, sampledTrees(srv) != 0)
	}
	if tr.stageSet&(1<<stageCompute) == 0 {
		t.Fatalf("workload miss summary has no compute stage: %v", tr.stageMap())
	}
}

// TestSampledTraceOutlivesUnsampledTraffic: a sampled trace stays
// retrievable, span tree included, after twice the store's capacity in
// unsampled requests has cycled through the summaries.
func TestSampledTraceOutlivesUnsampledTraffic(t *testing.T) {
	const entries = 4
	srv := New(Config{TraceEntries: entries})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	csv := testCSV()
	id := strings.Repeat("5e", 16)
	if status, _ := sendTraced(t, http.MethodPost, ts.URL+"/v1/sample", "text/csv", csv, id+"-01"); status != http.StatusOK {
		t.Fatalf("sampled request status %d", status)
	}
	for i := 0; i < 2*entries; i++ {
		if status, _ := sendTraced(t, http.MethodPost, ts.URL+"/v1/sample", "text/csv", csv, ""); status != http.StatusOK {
			t.Fatalf("unsampled request %d status %d", i, status)
		}
	}
	waitTraces(t, srv, 1+2*entries)
	var list api.TraceList
	getJSON(t, ts.URL+"/debug/traces", &list)
	for _, row := range list.Recent {
		if row.TraceID == id {
			t.Fatalf("sampled summary still among the %d recent after %d unsampled requests", entries, 2*entries)
		}
	}
	status, tr := getTrace(t, ts.URL, id)
	if status != http.StatusOK || findSpan(tr.Spans, stageCompute.String()) == nil {
		t.Fatalf("sampled trace after %d unsampled requests: status %d, %d spans", 2*entries, status, len(tr.Spans))
	}
}
