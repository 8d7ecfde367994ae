package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/gpusampling/sieve/api"
)

// envelopeIDs are plan ids as resolved.key makes them: hex content hashes.
var envelopeIDs = []string{
	"9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08",
	"0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef",
}

// TestAppendPlanEnvelopeMatchesMarshal: a plan envelope built by appending
// is byte-identical to json.Encoder's encoding of api.PlanEnvelope, for
// every cached/coalesced combination, including the empty id.
func TestAppendPlanEnvelopeMatchesMarshal(t *testing.T) {
	doc, err := json.Marshal(api.Plan{Theta: 0.4, NumStrata: 1, Method: "k<int>&", Representatives: []int{3}})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range append(envelopeIDs, "") {
		for _, cached := range []bool{false, true} {
			for _, coalesced := range []bool{false, true} {
				var want bytes.Buffer
				if err := json.NewEncoder(&want).Encode(api.PlanEnvelope{PlanID: id, Cached: cached, Coalesced: coalesced, Plan: doc}); err != nil {
					t.Fatal(err)
				}
				got := appendPlanEnvelope(nil, id, cached, coalesced, doc)
				if !bytes.Equal(got, want.Bytes()) {
					t.Errorf("id %q cached=%v coalesced=%v:\n got %s\nwant %s", id, cached, coalesced, got, want.Bytes())
				}
			}
		}
	}
}

// TestAppendBatchPlanMatchesMarshal: a successful batch item built by
// appending is byte-identical to json.Marshal of api.BatchItemResult. Batch
// items always carry their (non-empty) content hash.
func TestAppendBatchPlanMatchesMarshal(t *testing.T) {
	doc := []byte(`{"theta":0.4,"strata":[]}`)
	for _, id := range envelopeIDs {
		for _, cached := range []bool{false, true} {
			for _, coalesced := range []bool{false, true} {
				want, err := json.Marshal(api.BatchItemResult{Status: 200, PlanID: id, Cached: cached, Coalesced: coalesced, Plan: doc})
				if err != nil {
					t.Fatal(err)
				}
				if got := appendBatchPlan(nil, id, cached, coalesced, doc); !bytes.Equal(got, want) {
					t.Errorf("id %q cached=%v coalesced=%v:\n got %s\nwant %s", id, cached, coalesced, got, want)
				}
			}
		}
	}
}

// TestFillDoc: a peer's plan document is stored in exactly the form a local
// json.Marshal produces — compact, HTML characters escaped — and anything
// that is not a JSON object, or answers another plan id, is refused.
func TestFillDoc(t *testing.T) {
	plan := api.Plan{Theta: 0.25, NumStrata: 2, Method: "k<int>&", Representatives: []int{1, 7}}
	want, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	pretty, err := json.MarshalIndent(plan, "", "   ")
	if err != nil {
		t.Fatal(err)
	}
	var unescaped bytes.Buffer
	enc := json.NewEncoder(&unescaped)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "\t")
	if err := enc.Encode(plan); err != nil {
		t.Fatal(err)
	}
	for name, in := range map[string][]byte{"compact": want, "indented": pretty, "unescaped": unescaped.Bytes()} {
		if got := fillDoc(&api.PlanEnvelope{PlanID: "p", Plan: in}, "p"); !bytes.Equal(got, want) {
			t.Errorf("%s: fillDoc = %s, want %s", name, got, want)
		}
	}
	if got := fillDoc(&api.PlanEnvelope{PlanID: "q", Plan: want}, "p"); got != nil {
		t.Errorf("fillDoc of another plan id = %s, want nil", got)
	}
	for _, bad := range []string{"", "null", `"plan"`, "[1,2]", "42", `{"theta":`, `{"a":1}x`} {
		if got := fillDoc(&api.PlanEnvelope{PlanID: "p", Plan: json.RawMessage(bad)}, "p"); got != nil {
			t.Errorf("fillDoc(%q) = %s, want nil", bad, got)
		}
	}
}
