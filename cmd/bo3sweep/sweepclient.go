package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"repro/internal/serve"
	"repro/internal/table"
)

// cellSize reports a cell's vertex count for the result tables, covering
// the families whose size is not carried by the n field.
func cellSize(g serve.GraphSpec) int {
	switch g.Family {
	case "torus":
		return g.Rows * g.Cols
	case "hypercube":
		return 1 << g.Dim
	case "sbm":
		return g.A + g.B
	}
	return g.N
}

// sweepTest replays the request through a running bo3serve instance as
// ONE server-side sweep: a single POST /v1/sweeps expands its grid into
// child runs on the server, and the NDJSON results stream is tailed until
// the final aggregate arrives — no per-cell round-trips and no polling.
// The grid is one spec.Grid end to end: the same type the experiment
// registry publishes and the server expands. Its topology templates keep
// one seed per family on purpose: every δ-cell after the first reuses the
// pooled graph. With watch set it also
// attaches an SSE subscriber to the sweep's event topic and prints live
// round-level telemetry to stderr while the results stream runs.
func sweepTest(base string, req serve.SweepRequest, watch bool) error {
	client := &http.Client{Timeout: 10 * time.Minute}
	if err := checkHealth(client, base); err != nil {
		return err
	}

	start := time.Now()
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := client.Post(base+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var accepted serve.SweepView
	if err := decodeJSON(resp, http.StatusAccepted, &accepted); err != nil {
		return fmt.Errorf("submit sweep: %w", err)
	}

	watched := make(chan struct{})
	if watch {
		go func() {
			defer close(watched)
			watchSweep(client, base, accepted.ID)
		}()
	} else {
		close(watched)
	}

	// Tail the stream: one long-lived GET replaces per-job polling.
	stream, err := client.Get(base + "/v1/sweeps/" + accepted.ID + "/results")
	if err != nil {
		return err
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		return fmt.Errorf("results stream returned %s", stream.Status)
	}

	t := table.New(fmt.Sprintf("bo3serve sweep %s against %s (%s)", accepted.ID, base, req.Grid.Graphs[0].Family),
		"graph", "n", "delta", "state", "red wins", "consensus", "mean rounds", "cache hit")
	var final *serve.SweepView
	failures, totalTrials := 0, 0
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22) // the final event carries the aggregate
	for sc.Scan() {
		var ev serve.SweepEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("bad NDJSON line: %w", err)
		}
		switch {
		case ev.Cell != nil:
			c := ev.Cell
			if c.State != serve.StateDone || c.Result == nil {
				failures++
				t.AddRow(c.Request.Graph.Family, cellSize(c.Request.Graph), c.Request.Delta, c.State+": "+c.Error, "-", "-", "-", "-")
				continue
			}
			r := c.Result
			totalTrials += r.Trials
			t.AddRow(c.Request.Graph.Family, cellSize(c.Request.Graph), c.Request.Delta, c.State,
				fmt.Sprintf("%d/%d", r.RedWins, r.Trials),
				fmt.Sprintf("%d/%d", r.Consensus, r.Trials),
				fmt.Sprintf("%.1f", r.MeanRounds), r.CacheHit)
		case ev.Sweep != nil:
			final = ev.Sweep
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	// The event topic closes with the sweep's terminal event, so the
	// watcher exits on its own right after the results stream does; wait
	// for it so telemetry never interleaves with the tables below.
	<-watched
	wall := time.Since(start)

	fmt.Println()
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	if final == nil {
		return fmt.Errorf("stream ended without the final sweep event")
	}
	agg := final.Aggregate
	fmt.Printf("\n1 sweep request, %d cells (%d failed, %d cancelled), %d trials, wall %v, %.1f trials/s\n",
		agg.Cells, agg.Failed, agg.Cancelled, totalTrials, wall.Round(time.Millisecond),
		float64(totalTrials)/wall.Seconds())
	fmt.Printf("aggregate: red win rate %.3f [%.3f, %.3f], consensus rate %.3f, mean rounds %.1f\n",
		agg.RedWinRate, agg.RedWinLo, agg.RedWinHi, agg.ConsensusRate, agg.MeanRounds)
	if srvStats, err := fetchStats(client, base); err == nil {
		fmt.Printf("server: %d completed, graph cache %d/%d hits, %d evictions\n",
			srvStats.Completed, srvStats.Cache.Hits, srvStats.Cache.Hits+srvStats.Cache.Misses,
			srvStats.Cache.Evictions)
	}
	if failures > 0 || final.State != serve.StateDone {
		return fmt.Errorf("sweep ended %s with %d failed cells", final.State, failures)
	}
	return nil
}

func checkHealth(client *http.Client, base string) error {
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return fmt.Errorf("bo3serve not reachable at %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("bo3serve health check returned %s", resp.Status)
	}
	return nil
}

func fetchStats(client *http.Client, base string) (serve.Stats, error) {
	var s serve.Stats
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return s, err
	}
	return s, decodeJSON(resp, http.StatusOK, &s)
}

func decodeJSON(resp *http.Response, wantStatus int, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
