package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/artifact"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/store"
)

// workers is the server's job-pool width: one per CPU of the 2-CPU
// machine the benchmark was sized on, fixed so runs on any machine
// schedule the same way.
const workers = 2

// env is one in-process bo3serve: a manager and its HTTP server on a
// loopback listener, plus the optional result store and artifact
// directory under a private scratch directory.
type env struct {
	dir     string
	reg     *metrics.Registry
	store   *store.Store
	art     *artifact.Dir
	mgr     *serve.Manager
	httpSrv *http.Server
	served  chan error
	base    string
}

type envOptions struct {
	store     bool
	artifacts bool
}

// startEnv brings up a fresh server under a new directory inside parent.
func startEnv(parent string, opt envOptions) (*env, error) {
	dir, err := os.MkdirTemp(parent, "env-")
	if err != nil {
		return nil, err
	}
	e := &env{dir: dir, reg: metrics.NewRegistry()}
	cfg := serve.Config{Workers: workers, Metrics: e.reg}
	if opt.store {
		e.store, err = store.Open(filepath.Join(dir, "store"), store.Options{Metrics: store.NewMetrics(e.reg)})
		if err != nil {
			e.close()
			return nil, err
		}
		cfg.Store = e.store
	}
	if opt.artifacts {
		e.art, err = artifact.OpenDir(filepath.Join(dir, "artifacts"), 0)
		if err != nil {
			e.close()
			return nil, err
		}
		cfg.Artifacts = e.art
	}
	e.mgr = serve.NewManager(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	e.base = "http://" + ln.Addr().String()
	e.httpSrv = &http.Server{Handler: serve.NewServer(e.mgr), ReadHeaderTimeout: 10 * time.Second}
	e.served = make(chan error, 1)
	go func() { e.served <- e.httpSrv.Serve(ln) }()
	return e, nil
}

// close stops the HTTP server, drains the manager, closes the store and
// removes the scratch directory. Every goroutine startEnv began has
// exited when it returns.
func (e *env) close() error {
	var errs []error
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if e.httpSrv != nil {
		errs = append(errs, e.httpSrv.Shutdown(ctx))
		if err := <-e.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if e.mgr != nil {
		errs = append(errs, e.mgr.Close(ctx))
	}
	if e.store != nil {
		errs = append(errs, e.store.Close())
	}
	errs = append(errs, os.RemoveAll(e.dir))
	return errors.Join(errs...)
}

// client is one HTTP client connection: its own transport, capped at a
// single connection, so the benchmark's connection count is the number
// of clients it creates.
type client struct {
	hc   *http.Client
	base string
	tr   *tracer
}

func newClient(base string, tr *tracer) *client {
	t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: t, Timeout: 120 * time.Second}, base: base, tr: tr}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// httpError is a non-2xx response.
type httpError struct {
	code int
	body string
}

func (e *httpError) Error() string {
	return fmt.Sprintf("HTTP %d: %s", e.code, strings.TrimSpace(e.body))
}

// call sends one request and decodes a JSON response into out (nil =
// discard), recording an "http <route>" span under trace/parent.
func (c *client) call(method, route, path string, body, out any, trace string, parent int) error {
	start := time.Now()
	err := c.do(method, path, body, out)
	c.tr.add("http "+method+" "+route, trace, parent, start, time.Now())
	return err
}

func (c *client) do(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return &httpError{code: resp.StatusCode, body: string(data)}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// stream GETs an NDJSON endpoint and hands each line to fn until fn
// returns false or the stream ends, recording one span for the whole
// stream.
func (c *client) stream(route, path, trace string, parent int, fn func(line []byte) (more bool, err error)) error {
	start := time.Now()
	defer func() { c.tr.add("http GET "+route, trace, parent, start, time.Now()) }()
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body) // best effort: only decorates the error
		return &httpError{code: resp.StatusCode, body: string(data)}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		more, err := fn(sc.Bytes())
		if err != nil {
			return err
		}
		if !more {
			// Drain so the connection can be reused.
			_, err := io.Copy(io.Discard, resp.Body)
			return err
		}
	}
	return sc.Err()
}

// scrapeMetrics reads and parses the server's /metrics exposition.
func (c *client) scrapeMetrics() (scrape, error) {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, &httpError{code: resp.StatusCode}
	}
	return parseExposition(resp.Body)
}

// getJob fetches one job's view.
func (c *client) getJob(id, trace string, parent int) (serve.JobView, error) {
	var v serve.JobView
	err := c.call("GET", "/v1/runs/{id}", "/v1/runs/"+id, nil, &v, trace, parent)
	return v, err
}

// waitJob waits for a job to reach a terminal state by tailing its event
// stream, which ends when the job's topic closes.
func (c *client) waitJob(id, trace string, parent int) (state string, err error) {
	err = c.stream("/v1/runs/{id}/events", "/v1/runs/"+id+"/events", trace, parent, func(line []byte) (bool, error) {
		var ev struct {
			Type string              `json:"type"`
			Data serve.RunStateEvent `json:"data"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			return false, err
		}
		if ev.Type == serve.EventState {
			state = ev.Data.State
		}
		return true, nil
	})
	return state, err
}

// terminal reports whether a job state is final.
func terminal(state string) bool {
	return state == serve.StateDone || state == serve.StateFailed || state == serve.StateCancelled
}

// rssMiB reads the process's resident set from /proc/self/statm; 0 where
// the file does not exist.
func rssMiB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// rssSampler tracks the peak resident set while it runs.
type rssSampler struct {
	stop chan struct{}
	done chan float64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		peak := rssMiB()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				s.done <- max(peak, rssMiB())
				return
			case <-t.C:
				peak = max(peak, rssMiB())
			}
		}
	}()
	return s
}

// peak stops the sampler and returns the peak in MiB.
func (s *rssSampler) peak() float64 {
	close(s.stop)
	return <-s.done
}

// busySampleEvery is how often the traced sweep workloads read the
// server's busy-worker gauge.
const busySampleEvery = 20 * time.Millisecond

// busySampler integrates idle worker-seconds from the server's
// bo3_workers_busy gauge, scraped on its own client connection, with the
// trapezoid rule between samples.
type busySampler struct {
	stop  chan struct{}
	done  chan error
	idleS float64
}

func startBusySampler(c *client) *busySampler {
	s := &busySampler{stop: make(chan struct{}), done: make(chan error, 1)}
	go func() {
		read := func() (float64, time.Time, error) {
			sc, err := c.scrapeMetrics()
			return sc.total("bo3_workers_busy", nil), time.Now(), err
		}
		prev, last, err := read()
		t := time.NewTicker(busySampleEvery)
		defer t.Stop()
		for stopping := false; err == nil && !stopping; {
			select {
			case <-s.stop:
				stopping = true
			case <-t.C:
			}
			var cur float64
			var now time.Time
			if cur, now, err = read(); err == nil {
				s.idleS += (workers - (prev+cur)/2) * now.Sub(last).Seconds()
				prev, last = cur, now
			}
		}
		<-s.stop // a failed read waits here for idle too
		s.done <- err
	}()
	return s
}

// idle stops the sampler and returns the idle worker-seconds it saw.
func (s *busySampler) idle() (float64, error) {
	close(s.stop)
	err := <-s.done
	return s.idleS, err
}
