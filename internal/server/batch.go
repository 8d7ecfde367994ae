package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"github.com/gpusampling/sieve/api"
	"github.com/gpusampling/sieve/internal/obs"
)

// serveBatch answers POST /v1/batch: one scheduler pass over many profiles.
// The batch handler itself holds no worker slot — admission control lives
// where the compute happens, in each item's flight leader — so cache hits
// and coalesced joins cost nothing against the concurrency budget, and a
// batch can never hold a slot while waiting on a flight whose leader needs
// one (the deadlock an earlier whole-batch slot produced under cache-hostile
// load). Each item reuses the plan cache and the in-flight coalescing table,
// so a batch racing identical single requests computes each plan once. Item
// envelopes are streamed (and flushed) as they complete, so a long batch
// delivers results incrementally.
func (s *Server) serveBatch(w http.ResponseWriter, r *http.Request) int {
	_, decodeSpan := obs.StartSpan(r.Context(), stageDecode)
	body, err := s.readBody(w, r)
	if err != nil {
		decodeSpan.End()
		return s.writeError(w, err)
	}
	var breq api.BatchRequest
	err = json.Unmarshal(body, &breq)
	decodeSpan.End()
	if err != nil {
		return s.writeError(w, badRequest{fmt.Errorf("decode batch request: %w", err)})
	}
	if len(breq.Items) == 0 {
		return s.writeError(w, badRequest{errors.New("batch has no items")})
	}
	if len(breq.Items) > s.cfg.MaxBatchItems {
		return s.writeError(w, badRequest{fmt.Errorf("batch has %d items, limit is %d", len(breq.Items), s.cfg.MaxBatchItems)})
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	_, _ = io.WriteString(w, `{"items":[`)
	var buf []byte // reused per item: Write is done with it on return
	for i := range breq.Items {
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ',')
		}
		// Each item traces under its own span, so the batch's trace shows the
		// per-item serving path (cache hit, flight join, compute) in sequence.
		ictx, itemSpan := obs.StartSpan(ctx, "item")
		itemSpan.SetAttr("index", i)
		buf = s.batchItem(ictx, &breq.Items[i], buf)
		itemSpan.End()
		_, _ = w.Write(buf)
		if flusher != nil {
			flusher.Flush()
		}
	}
	_, _ = io.WriteString(w, "]}\n")
	return http.StatusOK
}

// batchItem resolves and answers one batch item, appending its
// api.BatchItemResult JSON to dst. A computing item's flight leader acquires
// its own worker slot exactly like a single request's would; hits and joins
// need none. Cache hits and coalesced joins count toward the same metrics as
// single requests; batch_items tracks the item volume itself.
func (s *Server) batchItem(ctx context.Context, req *api.SampleRequest, dst []byte) []byte {
	s.metrics.BatchItems.Add(1)
	rv, err := s.resolve(req)
	if err != nil {
		s.metrics.Failures.Add(1)
		return appendBatchError(dst, api.BatchItemResult{Status: statusFor(err), Error: err.Error()})
	}
	s.metrics.methodRequests(rv.method).Add(1)
	id := rv.key("sample")
	if p, hit := s.cachedPlan(ctx, id); hit {
		return appendBatchPlan(dst, id, true, false, p.doc)
	}
	s.metrics.CacheMisses.Add(1)
	doc, shared, err := s.computePlan(ctx, id, rv)
	if err != nil {
		s.metrics.Failures.Add(1)
		if s.cfg.Logger != nil {
			s.cfg.Logger.Warn("batch item failed", "status", statusFor(err), "error", err.Error())
		}
		return appendBatchError(dst, api.BatchItemResult{Status: statusFor(err), PlanID: id, Error: err.Error()})
	}
	return appendBatchPlan(dst, id, false, shared, doc)
}

// appendBatchError appends a failed item, which carries no plan.
func appendBatchError(dst []byte, item api.BatchItemResult) []byte {
	b, _ := json.Marshal(item) // ints and strings always marshal
	return append(dst, b...)
}
