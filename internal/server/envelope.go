package server

import (
	"net/http"
	"strconv"
)

// The plan-carrying responses are built by appending, not by json.Marshal:
// the plan document is already compact JSON (marshalPlan's output, or a peer
// fill normalized by fillDoc), and marshaling a json.RawMessage would
// validate and compact it again on every response. Plan ids are hex content
// hashes (resolved.key), so they go between quotes as they are. The appenders
// produce exactly the bytes json.Marshal produces for the api types; the tests
// pin that equivalence.

// envelopeSlack is room for an envelope's fixed fields around the id and the
// plan, so building one needs a single allocation.
const envelopeSlack = 64

// appendPlanEnvelope appends the api.PlanEnvelope response body for a plan:
// {"plan_id":…,"cached":…,"plan":…} plus the newline json.Encoder adds.
// coalesced appears only when true, as its omitempty tag has it.
func appendPlanEnvelope(dst []byte, id string, cached, coalesced bool, doc []byte) []byte {
	dst = append(dst, `{"plan_id":"`...)
	dst = append(dst, id...)
	dst = strconv.AppendBool(append(dst, `","cached":`...), cached)
	return append(appendPlanTail(dst, coalesced, doc), '\n')
}

// appendBatchPlan appends a successful api.BatchItemResult:
// {"status":200,"plan_id":…[,"cached":true][,"coalesced":true],"plan":…}.
func appendBatchPlan(dst []byte, id string, cached, coalesced bool, doc []byte) []byte {
	dst = append(dst, `{"status":200,"plan_id":"`...)
	dst = append(dst, id...)
	dst = append(dst, '"')
	if cached {
		dst = append(dst, `,"cached":true`...)
	}
	return appendPlanTail(dst, coalesced, doc)
}

func appendPlanTail(dst []byte, coalesced bool, doc []byte) []byte {
	if coalesced {
		dst = append(dst, `,"coalesced":true`...)
	}
	dst = append(dst, `,"plan":`...)
	dst = append(dst, doc...)
	return append(dst, '}')
}

// writeEnvelope answers 200 with a complete plan envelope in one write.
func writeEnvelope(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}
