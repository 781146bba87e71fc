package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// server is one `pestrie serve` child process.
type server struct {
	cmd    *exec.Cmd
	url    string
	done   chan struct{} // closed once the process has been waited for
	stderr bytes.Buffer  // read only after done is closed
	hc     *http.Client
}

// startServer spawns `pestrie serve` on a free loopback port and waits
// until /healthz answers.
func startServer(ctx context.Context, bin string, args ...string) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	s := &server{url: "http://" + addr, done: make(chan struct{})}
	s.cmd = exec.Command(bin, append([]string{"serve", "-addr", addr}, args...)...)
	s.cmd.Stderr = &s.stderr
	// The server must not outlive the benchmark, even if it is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		_ = s.cmd.Wait()
		close(s.done)
	}()
	s.hc = &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        2 * clients,
			MaxIdleConnsPerHost: 2 * clients,
			DisableCompression:  true,
		},
		Timeout: 30 * time.Second,
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/healthz", nil)
		if resp, err := s.hc.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.done:
			return nil, fmt.Errorf("pestrie serve exited during start-up: %s", bytes.TrimSpace(s.stderr.Bytes()))
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("pestrie serve did not answer /healthz within a minute")
		}
	}
}

// stop terminates the process and waits until it has exited.
func (s *server) stop() {
	s.hc.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// post sends one /batch request and returns the reply body.
func (s *server) post(ctx context.Context, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+"/batch", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST /batch: %s: %s", resp.Status, bytes.TrimSpace(out))
	}
	return out, nil
}

// getJSON decodes a GET endpoint into v.
func (s *server) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+path, nil)
	if err != nil {
		return err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// encodeBatch appends the /batch request body for qs to buf.
func encodeBatch(buf []byte, backend string, qs []query) []byte {
	buf = append(buf, `{"backend":"`...)
	buf = append(buf, backend...)
	buf = append(buf, `","queries":[`...)
	for i, q := range qs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"op":"`...)
		buf = append(buf, opNames[q.op]...)
		if q.op == opPointedBy {
			buf = append(buf, `","o":`...)
		} else {
			buf = append(buf, `","p":`...)
		}
		buf = strconv.AppendInt(buf, int64(q.a), 10)
		if q.op == opIsAlias {
			buf = append(buf, `,"q":`...)
			buf = strconv.AppendInt(buf, int64(q.b), 10)
		}
		buf = append(buf, '}')
	}
	return append(buf, "]}"...)
}

var (
	errorKey      = []byte(`"error":`)
	generationKey = []byte(`"generation":"`)
)

// stampOf extracts the delta-generation stamp from a reply's version tag
// ("<base hash>@<stamp>" for store-served backends); replies without one
// are generation 0.
func stampOf(body []byte) (uint64, error) {
	i := bytes.LastIndex(body, generationKey)
	if i < 0 {
		return 0, nil
	}
	tag := body[i+len(generationKey):]
	if j := bytes.IndexByte(tag, '"'); j >= 0 {
		tag = tag[:j]
	}
	at := bytes.LastIndexByte(tag, '@')
	if at < 0 {
		return 0, nil
	}
	n, err := strconv.ParseUint(string(tag[at+1:]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("reply generation %q: %w", tag, err)
	}
	return n, nil
}

// histSnap is the part of a server latency histogram the benchmark reads.
type histSnap struct {
	Count  int64 `json:"count"`
	MeanNS int64 `json:"mean_ns"`
}

// debugStats is the part of GET /debug/stats the benchmark reads:
// backend → op (plus "batch") → latency histogram.
type debugStats struct {
	Backends map[string]map[string]struct {
		Latency histSnap `json:"latency"`
	} `json:"backends"`
}

// windowMean is the mean server-side latency of op on backend between two
// snapshots, or 0 when nothing was observed.
func windowMean(before, after debugStats, backend, op string) time.Duration {
	a := after.Backends[backend][op].Latency
	b := before.Backends[backend][op].Latency
	if a.Count <= b.Count {
		return 0
	}
	return time.Duration((a.Count*a.MeanNS - b.Count*b.MeanNS) / (a.Count - b.Count))
}

// debugStore is the part of GET /debug/store the benchmark reads.
type debugStore struct {
	Backends []struct {
		Name         string   `json:"name"`
		LoadLatency  histSnap `json:"load_latency"`
		ApplyLatency histSnap `json:"apply_latency"`
	} `json:"backends"`
}
