package client_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"github.com/gpusampling/sieve/api"
	"github.com/gpusampling/sieve/client"
	"github.com/gpusampling/sieve/internal/server"
)

// TestMetricsParse pins the exposition parser: keys keep their labels
// verbatim, comments and blank lines are skipped, a line that is not
// "key value" fails the scrape, and a 500 is an *api.Error with Status 500.
func TestMetricsParse(t *testing.T) {
	for _, tc := range []struct {
		name   string
		status int
		body   string
		want   map[string]float64
		err    bool // any error; a non-2xx status must be an *api.Error with it
	}{
		{
			name:   "labeled key verbatim",
			status: http.StatusOK,
			body:   "sieved_stage_seconds_sum{stage=\"cache\"} 0.25\nsieved_requests_total 7\n",
			want: map[string]float64{
				`sieved_stage_seconds_sum{stage="cache"}`: 0.25,
				"sieved_requests_total":                   7,
			},
		},
		{
			name:   "comments and blank lines skipped",
			status: http.StatusOK,
			body:   "# HELP x y\n# TYPE sieved_goroutines gauge\n\nsieved_goroutines 12\n\n",
			want:   map[string]float64{"sieved_goroutines": 12},
		},
		{name: "name alone", status: http.StatusOK, body: "sieved_requests_total\n", err: true},
		{name: "non-numeric value", status: http.StatusOK, body: "sieved_requests_total many\n", err: true},
		{name: "server error", status: http.StatusInternalServerError, body: "boom\n", err: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/metrics" {
					http.NotFound(w, r)
					return
				}
				w.WriteHeader(tc.status)
				_, _ = w.Write([]byte(tc.body))
			}))
			defer ts.Close()
			c, err := client.New(ts.URL, client.WithRetries(0))
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Metrics(context.Background())
			if tc.err {
				if err == nil {
					t.Fatalf("Metrics accepted %q: %v", tc.body, got)
				}
				var apiErr *api.Error
				if tc.status != http.StatusOK && (!errors.As(err, &apiErr) || apiErr.Status != tc.status) {
					t.Fatalf("Metrics error = %v, want *api.Error with status %d", err, tc.status)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("Metrics = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestMetricsRoundTrip scrapes a real sieved: after one sample request its
// exposition carries the decode stage's histogram count.
func TestMetricsRoundTrip(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	defer ts.Close()
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	csv := "kernel,index,seq,cta_size,instruction_count\nk0,0,0,256,1000\nk0,1,1,256,1200\nk1,2,0,128,500\n"
	if _, err := c.SampleCSV(ctx, csv, api.RequestOptions{}); err != nil {
		t.Fatal(err)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n := m[`sieved_stage_seconds_count{stage="decode"}`]; n != 1 {
		t.Fatalf(`sieved_stage_seconds_count{stage="decode"} = %g, want 1`, n)
	}
	if n := m["sieved_requests_total"]; n != 1 {
		t.Fatalf("sieved_requests_total = %g, want 1", n)
	}
}
