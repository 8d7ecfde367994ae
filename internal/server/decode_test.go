package server

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"mime"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"github.com/gpusampling/sieve/api"
	"github.com/gpusampling/sieve/internal/core"
)

// framingLimit is the MaxBodyBytes of the body-framing tests.
const framingLimit = 200

// csvOfLen renders a valid profile CSV of exactly n bytes: whole rows, then
// blank lines (which the CSV reader skips) as padding.
func csvOfLen(t *testing.T, n int) string {
	t.Helper()
	var b strings.Builder
	b.WriteString("kernel,index,seq,cta_size,instruction_count\n")
	for i := 0; ; i++ {
		row := fmt.Sprintf("k%d,%d,%d,128,%d\n", i%2, i, i, 1000000+i*1000)
		if b.Len()+len(row) > n {
			break
		}
		b.WriteString(row)
	}
	if b.Len() < 60 {
		t.Fatalf("no room for a data row in %d bytes", n)
	}
	b.WriteString(strings.Repeat("\n", n-b.Len()))
	return b.String()
}

// TestBodyFraming: the body is read whole, whatever Content-Length declares —
// the length only sizes the read buffer — and MaxBodyBytes still caps it: a
// body of exactly the limit is served, one byte more is 413 however its length
// was declared. Requests go straight to the handler, so the declared length
// and the bytes the body yields can disagree.
func TestBodyFraming(t *testing.T) {
	atLimit := csvOfLen(t, framingLimit)
	short := csvOfLen(t, framingLimit-40)
	over := atLimit + "\n"
	srv := New(Config{MaxBodyBytes: framingLimit})
	h := srv.Handler()
	cases := []struct {
		name          string
		body          string
		contentLength int64 // -1: unknown, as for a chunked body
		want          int
	}{
		{"exact length", atLimit, framingLimit, http.StatusOK},
		{"unknown length (chunked)", atLimit, -1, http.StatusOK},
		{"declared shorter than body", atLimit, 10, http.StatusOK},
		{"declared longer than body", short, framingLimit, http.StatusOK},
		{"declared past the limit", short, framingLimit + 50, http.StatusOK},
		{"empty body", "", 0, http.StatusBadRequest},
		{"one byte over the limit", over, framingLimit + 1, http.StatusRequestEntityTooLarge},
		{"over the limit, unknown length", over, -1, http.StatusRequestEntityTooLarge},
		{"over the limit, declared short", over, 10, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := httptest.NewRequest(http.MethodPost, "/v1/sample", strings.NewReader(tc.body))
			r.Header.Set("Content-Type", "text/csv")
			r.ContentLength = tc.contentLength
			w := httptest.NewRecorder()
			h.ServeHTTP(w, r)
			if w.Code != tc.want {
				t.Fatalf("status %d, want %d: %s", w.Code, tc.want, w.Body.String())
			}
			if tc.want != http.StatusOK {
				return
			}
			var env api.PlanEnvelope
			if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
				t.Fatal(err)
			}
			if want := planIDFor(t, srv, tc.body); env.PlanID != want {
				t.Fatalf("plan_id %s, want %s (the whole body's)", env.PlanID, want)
			}
			if got := w.Header().Get("Content-Length"); got != fmt.Sprint(w.Body.Len()) {
				t.Fatalf("Content-Length %q, body %d bytes", got, w.Body.Len())
			}
		})
	}
}

// TestDeclaredLengthIsNotPreallocated: a request that declares a body of
// MaxBodyBytes but sends a few bytes must not cost the server the declared
// size up front; only bytes that arrive grow the read buffer past
// bodyHintCap.
func TestDeclaredLengthIsNotPreallocated(t *testing.T) {
	srv := New(Config{})
	h := srv.Handler()
	declared := srv.cfg.MaxBodyBytes
	if declared < 8*bodyHintCap {
		t.Fatalf("default MaxBodyBytes %d is too small to tell a capped hint from the declared size", declared)
	}
	r := httptest.NewRequest(http.MethodPost, "/v1/sample", strings.NewReader("kernel,index\n"))
	r.Header.Set("Content-Type", "text/csv")
	r.ContentLength = declared
	w := httptest.NewRecorder()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(w, r)
	runtime.ReadMemStats(&after)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", w.Code, w.Body.String())
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > uint64(declared/4) {
		t.Fatalf("allocated %d bytes for a %d-byte body declared as %d", got, len("kernel,index\n"), declared)
	}
}

// TestBodyFramingOnTheWire: over a real connection the declared length does
// frame the body. A chunked upload is read whole; a body cut off before its
// declared length is the caller's mistake (400), not a server error; and a
// declared length shorter than the bytes sent delimits the profile.
func TestBodyFramingOnTheWire(t *testing.T) {
	csv := csvOfLen(t, framingLimit)
	srv := New(Config{MaxBodyBytes: framingLimit})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// io.MultiReader hides the length, so the client sends it chunked.
	resp, err := http.Post(ts.URL+"/v1/sample", "text/csv", io.MultiReader(strings.NewReader(csv)))
	if err != nil {
		t.Fatal(err)
	}
	var env api.PlanEnvelope
	err = json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || env.PlanID != planIDFor(t, srv, csv) {
		t.Fatalf("chunked upload: status %d, plan_id %q, err %v", resp.StatusCode, env.PlanID, err)
	}

	// raw sends a request with a hand-written Content-Length. closeWrite ends
	// the client's side after the bytes, so a short body reads as cut off
	// (the server also cancels the request context then, so a request that
	// must compute keeps its side open).
	raw := func(declared int, sent string, closeWrite bool) *http.Response {
		t.Helper()
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
		fmt.Fprintf(conn, "POST /v1/sample HTTP/1.1\r\nHost: sieved\r\nContent-Type: text/csv\r\nContent-Length: %d\r\n\r\n%s", declared, sent)
		if closeWrite {
			if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
				t.Fatal(err)
			}
		}
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := raw(len(csv), csv[:len(csv)-30], true); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated body: status %d, want 400", resp.StatusCode)
	}

	// The first three lines are a complete profile of their own.
	prefix := csv[:strings.Index(csv, "\n")+1]
	prefix += strings.Join(strings.SplitAfter(csv[len(prefix):], "\n")[:2], "")
	resp = raw(len(prefix), csv, false)
	env = api.PlanEnvelope{}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("declared-short body: status %d, err %v", resp.StatusCode, err)
	}
	if want := planIDFor(t, srv, prefix); env.PlanID != want {
		t.Fatalf("declared-short body: plan_id %s, want %s (the declared prefix's)", env.PlanID, want)
	}
}

// referenceKey spells key's hashed bytes with the fmt format they are
// defined by; key appends them by hand, and plan ids depend on every byte.
// The stream, reservoir and seed fields are read from the wire request, as
// they were hashed before resolve kept them in the method options.
func referenceKey(rv *resolved, kind string) string {
	h := sha256.New()
	o := rv.req.Options
	fmt.Fprintf(h, "%s|theta=%g|sel=%d|split=%d|stream=%v|res=%d|seed=%d|arch=%s|",
		kind, rv.opts.Core.Theta, rv.opts.Core.Selection, rv.opts.Core.Tier3Splitter,
		o.Stream, o.ReservoirSize, o.Seed, rv.arch)
	if rv.method != core.MethodSieve {
		fmt.Fprintf(h, "method=%s|", rv.method)
	}
	if csv := rv.req.ProfileCSV; csv != "" {
		fmt.Fprintf(h, "csv|%s", csv)
	} else {
		fmt.Fprintf(h, "workload|%s|%g", rv.req.Workload, rv.req.Scale)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// FuzzDecodeRequest drives decodeRequest → resolve → key with arbitrary
// content types, queries and bodies: nothing may panic, and a text/csv body
// must address the same plan as the same profile and options sent as a JSON
// envelope.
func FuzzDecodeRequest(f *testing.F) {
	csv := testCSV()
	f.Add("text/csv", "theta=0.5", csv)
	f.Add("text/csv; charset=utf-8", "selection=max-cta&splitter=gmm&seed=3", csv)
	f.Add("application/csv", "stream=true&reservoir_size=4", "kernel,index,seq,cta_size,instruction_count\nk,0,0,128,1e6\n")
	f.Add("text/csv", "method=pks", csv)
	f.Add("text/csv", "method=twophase&stream=1", csv)
	f.Add("text/csv", "theta=NaN&arch=hopper", "x")
	f.Add("text/csv", "parallelism=-1&theta=1e400", "")
	f.Add("application/json", "", `{"profile_csv":"a,b\n","options":{"theta":0.3,"method":"rss"}}`)
	f.Add("application/json", "", `{"workload":"lmc","scale":0.01}`)
	f.Add("application/json", "", `{"workload":"lmc","scale":0.25,"options":{"method":"twophase","seed":7,"arch":"hopper","theta":1e-7}}`)
	f.Add("", "seed=x", `{"workload":"nope","scale":-1}`)
	f.Add("text/plain;;", "%zz", "\xff\xfe")
	srv := New(Config{MaxBodyBytes: 1 << 16})

	decode := func(contentType, query, body string) (*api.SampleRequest, error) {
		r := httptest.NewRequest(http.MethodPost, "/v1/sample", strings.NewReader(body))
		r.URL.RawQuery = query
		r.Header.Set("Content-Type", contentType)
		return srv.decodeRequest(httptest.NewRecorder(), r)
	}
	f.Fuzz(func(t *testing.T, contentType, query, body string) {
		req, err := decode(contentType, query, body)
		if err != nil {
			return
		}
		rv, rerr := srv.resolve(req)
		var key string
		if rerr == nil {
			key = rv.key("sample")
			if ref := referenceKey(rv, "sample"); key != ref {
				t.Fatalf("key %s, reference format gives %s", key, ref)
			}
		}

		ct := contentType
		if mt, _, err := mime.ParseMediaType(ct); err == nil {
			ct = mt
		}
		if ct != "text/csv" && ct != "application/csv" || !utf8.ValidString(body) {
			return // not the CSV shape, or a body JSON cannot carry unchanged
		}
		env, err := json.Marshal(api.SampleRequest{ProfileCSV: body, Options: req.Options})
		if err != nil {
			return // e.g. θ=NaN from the query has no JSON form
		}
		jreq, err := decode("application/json", "", string(env))
		if err != nil {
			t.Fatalf("JSON twin of a decoded CSV request failed to decode: %v", err)
		}
		jrv, jerr := srv.resolve(jreq)
		if (rerr == nil) != (jerr == nil) {
			t.Fatalf("CSV resolve error %v, JSON twin %v", rerr, jerr)
		}
		if rerr == nil && jrv.key("sample") != key {
			t.Fatalf("CSV and JSON shapes of one request address different plans")
		}
	})
}
