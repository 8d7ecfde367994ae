package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/gpusampling/sieve/client"
)

// clockTick is the unit of the utime/stime fields of /proc/<pid>/stat
// (USER_HZ, 100 on Linux).
const clockTick = 10 * time.Millisecond

// buildSieved compiles cmd/sieved from the repository at root into binDir.
func buildSieved(ctx context.Context, root, binDir string) (string, error) {
	bin := filepath.Join(binDir, "sieved")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/sieved")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build sieved: %w", err)
	}
	return bin, nil
}

// replica is one sieved child process.
type replica struct {
	url    string
	cmd    *exec.Cmd
	done   chan struct{} // closed once the process has been reaped
	http   *http.Client
	sieved *client.Client
}

// replicaSet is a set of replicas started together, peered when there is more
// than one.
type replicaSet struct {
	replicas []*replica
}

// startCluster starts n replicas on free loopback ports and returns once
// every one answers /healthz, with the time from the first exec until then.
func startCluster(ctx context.Context, bin string, n, cacheEntries int) (*replicaSet, time.Duration, error) {
	urls := make([]string, n)
	for i := range urls {
		port, err := freePort()
		if err != nil {
			return nil, 0, err
		}
		urls[i] = "http://127.0.0.1:" + strconv.Itoa(port)
	}
	c := &replicaSet{}
	start := time.Now()
	for _, url := range urls {
		args := []string{"-addr", strings.TrimPrefix(url, "http://"), "-log-level", "error"}
		if cacheEntries > 0 {
			args = append(args, "-cache", strconv.Itoa(cacheEntries))
		}
		if n > 1 {
			args = append(args, "-self", url, "-peers", strings.Join(urls, ","))
		}
		r, err := startReplica(bin, url, args)
		if err != nil {
			c.stop()
			return nil, 0, err
		}
		c.replicas = append(c.replicas, r)
	}
	for _, r := range c.replicas {
		if err := r.waitHealthy(ctx); err != nil {
			c.stop()
			return nil, 0, err
		}
	}
	return c, time.Since(start), nil
}

func startReplica(bin, url string, args []string) (*replica, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start sieved: %w", err)
	}
	// Two idle connections per worker cover every request the open loop can
	// have in flight against one replica; nothing else shares the pool.
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * inFlight, DisableCompression: true}}
	cl, err := client.New(url, client.WithHTTPClient(hc), client.WithRetries(0), client.WithTimeout(time.Minute))
	if err != nil {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, err
	}
	r := &replica{url: url, cmd: cmd, done: make(chan struct{}), http: hc, sieved: cl}
	go func() {
		_ = cmd.Wait()
		close(r.done)
	}()
	return r, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("reserve port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitHealthy polls /healthz every 100µs until the replica answers: start-up
// takes a few milliseconds, so a coarser poll would dominate setup_s.
func (r *replica) waitHealthy(ctx context.Context) error {
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(10 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.url+"/healthz", nil)
		if err != nil {
			return err
		}
		req.Header.Set("Accept", "text/plain")
		if resp, err := probe.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-r.done:
			return fmt.Errorf("sieved at %s exited during start-up", r.url)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(100 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("sieved at %s not healthy after 10s", r.url)
		}
	}
}

// stop sends SIGTERM to every replica and waits until each has exited,
// killing any that outlives the grace period.
func (c *replicaSet) stop() {
	for _, r := range c.replicas {
		_ = r.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, r := range c.replicas {
		select {
		case <-r.done:
		case <-time.After(10 * time.Second):
			_ = r.cmd.Process.Kill()
			<-r.done
		}
		r.http.CloseIdleConnections()
	}
}

// cpu returns the replicas' summed user+system CPU time so far.
func (c *replicaSet) cpu() (time.Duration, error) {
	var total time.Duration
	for _, r := range c.replicas {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", r.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		ticks, err := parseStatCPU(b)
		if err != nil {
			return 0, err
		}
		total += time.Duration(ticks) * clockTick
	}
	return total, nil
}

// peakRSS returns the replicas' summed resident-set high-water mark in KiB.
func (c *replicaSet) peakRSS() (int64, error) {
	var total int64
	for _, r := range c.replicas {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", r.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		kb, err := parseStatusHWM(b)
		if err != nil {
			return 0, err
		}
		total += kb
	}
	return total, nil
}

// parseStatCPU returns utime+stime, in clock ticks, from a /proc/<pid>/stat
// line. The command name in parentheses may contain spaces, so fields are
// counted from the last ')': state is field 3 and utime, stime are 14, 15.
func parseStatCPU(stat []byte) (int64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command name")
	}
	f := strings.Fields(string(stat[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command name", len(f))
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return utime + stime, nil
}

// parseStatusHWM returns VmHWM in KiB from a /proc/<pid>/status document.
func parseStatusHWM(status []byte) (int64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, errors.New("proc status: no VmHWM line")
}
