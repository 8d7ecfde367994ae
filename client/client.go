// Package client is the typed HTTP client for the sieved plan service — the
// supported way to talk to sieved from Go, used by the sieveload load
// harness and by sieved replicas themselves for peer proxy and
// fetch-and-fill traffic.
//
// A Client is cheap to construct and safe for concurrent use. Every method
// takes a context; on top of that an optional per-request timeout
// (WithTimeout) bounds each attempt individually, so a retried request gets
// a fresh attempt budget instead of inheriting an almost-expired deadline.
//
// Failed requests are retried with jittered exponential backoff, but only
// when retrying can help: transport errors (connection refused, reset, DNS)
// and 5xx responses. 4xx responses are the caller's fault and are never
// retried — re-sending a malformed profile cannot fix it. Non-2xx responses
// come back as *api.Error carrying the HTTP status, so callers branch with
// errors.As.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/gpusampling/sieve/api"
)

// Client talks to one sieved base URL.
type Client struct {
	base    string
	hc      *http.Client
	timeout time.Duration
	retries int
	backoff time.Duration
	header  http.Header

	// jitter is the backoff jitter source; guarded by mu because a Client is
	// shared across goroutines and rand.Rand is not.
	mu     sync.Mutex
	jitter *rand.Rand
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (connection pool,
// transport, TLS). The default is a plain &http.Client{}.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithTimeout bounds each request attempt (not the whole retry sequence).
// Zero means only the caller's context limits the attempt.
func WithTimeout(d time.Duration) Option { return func(c *Client) { c.timeout = d } }

// WithRetries sets how many times a retryable failure is re-attempted after
// the first try (default 2; 0 disables retries).
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// WithBackoff sets the base backoff between retries (default 100ms). The
// n-th retry waits backoff·2ⁿ scaled by a uniform [0.5, 1.5) jitter, so a
// thundering herd of clients desynchronizes instead of re-colliding.
func WithBackoff(d time.Duration) Option { return func(c *Client) { c.backoff = d } }

// WithHeader adds a header to every request (e.g. the peer-forwarding
// marker sieved replicas stamp on proxied traffic).
func WithHeader(key, value string) Option {
	return func(c *Client) { c.header.Set(key, value) }
}

// New builds a Client for the sieved at baseURL (scheme + host[:port],
// trailing slash tolerated).
func New(baseURL string, opts ...Option) (*Client, error) {
	base := strings.TrimRight(strings.TrimSpace(baseURL), "/")
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		return nil, fmt.Errorf("client: base URL %q must start with http:// or https://", baseURL)
	}
	c := &Client{
		base:    base,
		hc:      &http.Client{},
		retries: 2,
		backoff: 100 * time.Millisecond,
		header:  make(http.Header),
		jitter:  rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// BaseURL returns the normalized base URL this client targets.
func (c *Client) BaseURL() string { return c.base }

// retryable reports whether a failed attempt may be re-tried: transport
// errors and 5xx statuses, never 4xx. Context cancellation and deadline
// expiry are terminal — the caller's budget is spent, not the server's.
func retryable(status int, err error) bool {
	if err != nil {
		return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
	}
	return status >= 500
}

// sleepBackoff waits the jittered exponential backoff for retry attempt n
// (0-based), honoring ctx.
func (c *Client) sleepBackoff(ctx context.Context, n int) error {
	d := c.backoff << uint(n)
	c.mu.Lock()
	d = time.Duration(float64(d) * (0.5 + c.jitter.Float64()))
	c.mu.Unlock()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// do runs one request with the retry policy and returns the final status and
// body. err is non-nil only for transport-level failures (after retries) or
// a cancelled context; HTTP-level failures return err == nil with the status
// and the server's error body, which typed wrappers turn into *api.Error.
func (c *Client) do(ctx context.Context, method, path, contentType string, body []byte) (status int, respBody []byte, err error) {
	for attempt := 0; ; attempt++ {
		status, respBody, err = c.once(ctx, method, path, contentType, body)
		if err == nil && status < 500 {
			return status, respBody, nil
		}
		if attempt >= c.retries || !retryable(status, err) {
			return status, respBody, err
		}
		if serr := c.sleepBackoff(ctx, attempt); serr != nil {
			return status, respBody, err
		}
	}
}

// once runs a single attempt under the per-request timeout.
func (c *Client) once(ctx context.Context, method, path, contentType string, body []byte) (int, []byte, error) {
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	for k, vs := range c.header {
		for _, v := range vs {
			req.Header.Set(k, v)
		}
	}
	if tv := traceHeaderValue(ctx); tv != "" {
		req.Header.Set(api.TraceHeader, tv)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}

// decode unmarshals a 2xx body into out, or turns a non-2xx body into
// *api.Error with the status attached.
func decode(status int, body []byte, out any) error {
	if status < 200 || status > 299 {
		apiErr := &api.Error{Status: status}
		if jerr := json.Unmarshal(body, apiErr); jerr != nil || apiErr.Message == "" {
			apiErr.Message = strings.TrimSpace(string(body))
		}
		return apiErr
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("client: decode response: %w", err)
	}
	return nil
}

// Sample posts a JSON sample request and returns the plan envelope.
func (c *Client) Sample(ctx context.Context, req *api.SampleRequest) (*api.PlanEnvelope, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	status, respBody, err := c.do(ctx, http.MethodPost, "/v1/sample", "application/json", body)
	if err != nil {
		return nil, err
	}
	env := &api.PlanEnvelope{}
	if err := decode(status, respBody, env); err != nil {
		return nil, err
	}
	return env, nil
}

// SampleRaw posts a JSON sample request and relays the response verbatim:
// the HTTP status and the exact body bytes, whatever the status was. It is
// the proxy building block — sieved replicas use it to forward a request to
// the owning peer and relay the answer untouched. err is non-nil only when
// no usable response arrived (transport failure or cancelled context).
func (c *Client) SampleRaw(ctx context.Context, req *api.SampleRequest) (status int, body []byte, err error) {
	b, err := json.Marshal(req)
	if err != nil {
		return 0, nil, err
	}
	return c.do(ctx, http.MethodPost, "/v1/sample", "application/json", b)
}

// SampleCSV posts a raw profile CSV (text/csv) with the options encoded as
// query parameters, the curl-friendly request shape, and returns the plan
// envelope.
func (c *Client) SampleCSV(ctx context.Context, profileCSV string, opts api.RequestOptions) (*api.PlanEnvelope, error) {
	q := optionsQuery(opts)
	path := "/v1/sample"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	status, respBody, err := c.do(ctx, http.MethodPost, path, "text/csv", []byte(profileCSV))
	if err != nil {
		return nil, err
	}
	env := &api.PlanEnvelope{}
	if err := decode(status, respBody, env); err != nil {
		return nil, err
	}
	return env, nil
}

// optionsQuery renders RequestOptions as the query parameters the CSV
// request shape accepts, omitting zero values.
func optionsQuery(o api.RequestOptions) url.Values {
	q := url.Values{}
	if o.Theta != 0 {
		q.Set("theta", strconv.FormatFloat(o.Theta, 'g', -1, 64))
	}
	if o.Selection != "" {
		q.Set("selection", o.Selection)
	}
	if o.Splitter != "" {
		q.Set("splitter", o.Splitter)
	}
	if o.Parallelism != 0 {
		q.Set("parallelism", strconv.Itoa(o.Parallelism))
	}
	if o.Stream {
		q.Set("stream", "true")
	}
	if o.ReservoirSize != 0 {
		q.Set("reservoir_size", strconv.Itoa(o.ReservoirSize))
	}
	if o.Seed != 0 {
		q.Set("seed", strconv.FormatUint(o.Seed, 10))
	}
	if o.Arch != "" {
		q.Set("arch", o.Arch)
	}
	return q
}

// Batch posts many sample requests in one call and returns the per-item
// results. Items fail independently; Batch returns an error only when the
// batch itself was rejected or unreachable.
func (c *Client) Batch(ctx context.Context, req *api.BatchRequest) (*api.BatchResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	status, respBody, err := c.do(ctx, http.MethodPost, "/v1/batch", "application/json", body)
	if err != nil {
		return nil, err
	}
	out := &api.BatchResponse{}
	if err := decode(status, respBody, out); err != nil {
		return nil, err
	}
	return out, nil
}

// GetPlan fetches a cached plan by content hash. A plan that is not cached
// anywhere returns *api.Error with Status 404.
func (c *Client) GetPlan(ctx context.Context, id string) (*api.PlanEnvelope, error) {
	status, respBody, err := c.do(ctx, http.MethodGet, "/v1/plans/"+url.PathEscape(id), "", nil)
	if err != nil {
		return nil, err
	}
	env := &api.PlanEnvelope{}
	if err := decode(status, respBody, env); err != nil {
		return nil, err
	}
	return env, nil
}

// Healthz reports liveness plus ring membership, so callers can discover the
// replica set from any one replica.
func (c *Client) Healthz(ctx context.Context) (*api.Health, error) {
	status, respBody, err := c.do(ctx, http.MethodGet, "/healthz", "", nil)
	if err != nil {
		return nil, err
	}
	h := &api.Health{}
	if err := decode(status, respBody, h); err != nil {
		return nil, err
	}
	return h, nil
}

// DebugMetrics snapshots the server's /debug/metrics counters and latency
// quantiles as the typed JSON document dashboards read.
func (c *Client) DebugMetrics(ctx context.Context) (*api.DebugMetrics, error) {
	status, respBody, err := c.do(ctx, http.MethodGet, "/debug/metrics", "", nil)
	if err != nil {
		return nil, err
	}
	m := &api.DebugMetrics{}
	if err := decode(status, respBody, m); err != nil {
		return nil, err
	}
	return m, nil
}

// Metrics scrapes the server's Prometheus text exposition (/metrics) into
// samples keyed by metric name plus labels exactly as written, e.g.
// `sieved_stage_seconds_sum{stage="cache"}`. Comment and blank lines are
// skipped; any other line that is not "key value" is an error.
func (c *Client) Metrics(ctx context.Context) (map[string]float64, error) {
	status, respBody, err := c.do(ctx, http.MethodGet, "/metrics", "", nil)
	if err != nil {
		return nil, err
	}
	if err := decode(status, respBody, nil); err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(respBody), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("client: malformed metrics sample %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("client: metrics sample %q: %w", line, err)
		}
		out[strings.TrimRight(line[:i], " ")] = v
	}
	return out, nil
}
