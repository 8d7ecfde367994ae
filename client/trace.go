// Distributed-tracing support: minting trace ids, carrying them on a
// context, and reading completed traces back from a replica's trace store.
//
// A trace id names one logical request across every replica it touches. The
// client injects it as the api.TraceHeader request header; sieved echoes the
// id back on the response and propagates it on proxy and fetch-and-fill
// hops, so the id retrieved from any replica's /debug/traces store ties the
// whole path together.
package client

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/url"
	"strings"

	"github.com/gpusampling/sieve/api"
)

// traceIDKey carries a trace id on a context.
type traceIDKey struct{}

// WithTraceID returns a context that makes every client request carry the
// given trace id in the api.TraceHeader header, marked sampled ("<id>-01"),
// so sieved keeps the request's full span tree. Invalid ids (per
// ValidTraceID) are ignored and the request traces, unsampled, under a
// server-minted id instead.
func WithTraceID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceIDKey{}, id)
}

// TraceID returns the trace id carried by ctx ("" when none).
func TraceID(ctx context.Context) string {
	id, _ := ctx.Value(traceIDKey{}).(string)
	return id
}

// NewTraceID mints a random 32-hex-digit trace id from crypto/rand. Load
// generators that need deterministic ids can format their own instead — any
// 16–64 hex digits are accepted (ValidTraceID).
func NewTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; trace under a
		// server-minted id rather than crash the request path.
		return ""
	}
	return hex.EncodeToString(b[:])
}

// ValidTraceID reports whether id is an acceptable trace id: 16–64 lowercase
// hex digits. The bounds keep ids indexable while letting callers embed
// their own structure (the canonical minted form is 32 digits).
func ValidTraceID(id string) bool {
	if len(id) < 16 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// traceHeaderValue renders the header value for a context-carried id ("" when
// the context carries none or an invalid one).
func traceHeaderValue(ctx context.Context) string {
	id := TraceID(ctx)
	if !ValidTraceID(id) {
		return ""
	}
	return id + "-01"
}

// ParseTraceHeader extracts the trace id from an api.TraceHeader value: the
// first dash-separated token, lowercased. Returns "" for values that do not
// carry a valid id.
func ParseTraceHeader(v string) string {
	v = strings.TrimSpace(v)
	if i := strings.IndexByte(v, '-'); i >= 0 {
		v = v[:i]
	}
	v = strings.ToLower(v)
	if !ValidTraceID(v) {
		return ""
	}
	return v
}

// GetTrace fetches one completed trace by id from the replica's bounded
// trace store. Traces are resident only until overwritten, so a 404
// (*api.Error) is an expected answer under load, not a protocol failure.
func (c *Client) GetTrace(ctx context.Context, id string) (*api.Trace, error) {
	status, respBody, err := c.do(ctx, "GET", "/debug/traces/"+url.PathEscape(id), "", nil)
	if err != nil {
		return nil, err
	}
	t := &api.Trace{}
	if err := decode(status, respBody, t); err != nil {
		return nil, err
	}
	return t, nil
}

// Traces lists the replica's recent and slowest resident traces.
func (c *Client) Traces(ctx context.Context) (*api.TraceList, error) {
	status, respBody, err := c.do(ctx, "GET", "/debug/traces", "", nil)
	if err != nil {
		return nil, err
	}
	l := &api.TraceList{}
	if err := decode(status, respBody, l); err != nil {
		return nil, err
	}
	return l, nil
}
