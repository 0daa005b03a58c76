package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"bubblezero/internal/runner"
	"bubblezero/internal/twin"
)

// twinEnv is one bubblezerod-shaped service: twin.NewServer's handler on
// a loopback listener, one twin created through the API, and a client
// with at most one connection per lane.
type twinEnv struct {
	srv    *twin.Server
	hs     *http.Server
	served chan error
	tp     *http.Transport
	hc     *http.Client
	base   string
	id     string
	series []string
}

// twinStatus is the subset of GET /twins/{id} the benchmark reads.
type twinStatus struct {
	ID      string `json:"id"`
	Ticks   uint64 `json:"ticks"`
	Pending uint64 `json:"pending"`
	Err     string `json:"error"`
}

// startTwinEnv serves a fresh registry, creates a twin from cfg through
// POST /twins, advances it warmTicks through POST /run and waits until
// the runner is idle.
func startTwinEnv(ctx context.Context, lanes int, cfg twin.Config, warmTicks uint64) (*twinEnv, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	env := &twinEnv{srv: twin.NewServer(), served: make(chan error, 1)}
	env.hs = &http.Server{Handler: env.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { env.served <- env.hs.Serve(ln) }()
	env.tp = &http.Transport{MaxIdleConnsPerHost: lanes, MaxConnsPerHost: lanes}
	env.hc = &http.Client{Transport: env.tp, Timeout: 60 * time.Second}
	env.base = "http://" + ln.Addr().String()

	body, err := json.Marshal(cfg)
	if err != nil {
		env.close()
		return nil, err
	}
	code, resp, err := env.do(ctx, http.MethodPost, "/twins", body)
	if err == nil && code != http.StatusCreated {
		err = fmt.Errorf("POST /twins: status %d: %s", code, resp)
	}
	var st twinStatus
	if err == nil {
		err = json.Unmarshal(resp, &st)
	}
	if err != nil {
		env.close()
		return nil, err
	}
	env.id = st.ID
	if err := env.runTicks(ctx, warmTicks); err != nil {
		env.close()
		return nil, err
	}
	if _, err := env.waitIdle(ctx); err != nil {
		env.close()
		return nil, err
	}
	code, resp, err = env.do(ctx, http.MethodGet, "/twins/"+env.id+"/series?building=0", nil)
	var list struct {
		Series []string `json:"series"`
	}
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET series: status %d", code)
	}
	if err == nil {
		err = json.Unmarshal(resp, &list)
	}
	if err == nil && len(list.Series) == 0 {
		err = fmt.Errorf("twin records no series")
	}
	if err != nil {
		env.close()
		return nil, err
	}
	env.series = list.Series
	return env, nil
}

// close stops the listener, the server's twins and the client, and waits
// for the serve loop to return.
func (e *twinEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = e.hs.Shutdown(ctx) // a timed-out shutdown leaves nothing further to do
	<-e.served
	e.srv.Close()
	e.tp.CloseIdleConnections()
}

// do sends one request and returns the status and body. With buf set the
// body is read into it and aliases it until buf's next use.
func (e *twinEnv) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	return e.doBuf(ctx, method, path, body, nil)
}

func (e *twinEnv) doBuf(ctx context.Context, method, path string, body []byte, buf *bytes.Buffer) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, e.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := e.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if buf == nil {
		out, err := io.ReadAll(resp.Body)
		return resp.StatusCode, out, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes(), err
}

func (e *twinEnv) runTicks(ctx context.Context, n uint64) error {
	code, resp, err := e.do(ctx, http.MethodPost, "/twins/"+e.id+"/run", []byte(fmt.Sprintf(`{"ticks": %d}`, n)))
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("POST run: status %d: %s", code, resp)
	}
	return err
}

func (e *twinEnv) status(ctx context.Context) (twinStatus, error) {
	var st twinStatus
	code, resp, err := e.do(ctx, http.MethodGet, "/twins/"+e.id, nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET status: status %d", code)
	}
	if err == nil {
		err = json.Unmarshal(resp, &st)
	}
	if err == nil && st.Err != "" {
		err = fmt.Errorf("twin runner failed: %s", st.Err)
	}
	return st, err
}

// idlePoll is how often waitIdle asks the twin for its backlog.
const idlePoll = 2 * time.Millisecond

func (e *twinEnv) waitIdle(ctx context.Context) (twinStatus, error) {
	for {
		st, err := e.status(ctx)
		if err != nil || st.Pending == 0 {
			return st, err
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(idlePoll):
		}
	}
}

// op is one generated request and what a correct answer looks like.
type op struct {
	kind   string // query, csv, series, status, event
	method string
	path   string
	body   []byte
	want   int // buckets (query) or data rows (csv)

	// query parameters, for direct trace.Query probes
	building         int
	series, agg      string
	fromS, toS, step int64
}

func (o op) isRead() bool { return o.kind != "event" }

// opMix is a request mix in percent.
type opMix struct{ query, csv, series, status, event int }

// opGen draws requests for one twin.
type opGen struct {
	id        string
	buildings int
	series    []string
	mix       opMix
	// History the queries address, in seconds since the simulated start.
	// With live set, windows end at the latest tick a status call saw.
	historyS int64
	live     bool
	latest   *atomic.Uint64
}

var (
	aggs      = []string{"mean", "max", "min", "last"}
	steps     = []int64{15, 60, 300, 900}
	windows   = []int64{1800, 3600, 6000} // dashboard ranges: tens to hundreds of points per answer
	csvSteps  = []int64{300, 900}
	faultKind = []string{
		`{"kind": "jam", "at_s": %d, "for_s": 30}`,
		`{"kind": "burst-loss", "at_s": %d, "for_s": 60, "magnitude": 0.5}`,
		`{"kind": "pump-degrade", "at_s": %d, "for_s": 120, "loop": "radiant", "magnitude": 0.3}`,
	}
)

func (g *opGen) window(rng *rand.Rand) (from, to int64) {
	w := windows[rng.IntN(len(windows))]
	end := g.historyS
	if g.live {
		end = int64(g.latest.Load()) * tickSeconds
	}
	if end <= w {
		return 0, end
	}
	to = end - rng.Int64N(end-w+1)
	if g.live {
		to = end
	}
	return to - w, to
}

func (g *opGen) next(rng *rand.Rand) op {
	r := rng.IntN(100)
	b := rng.IntN(g.buildings)
	switch m := g.mix; {
	case r < m.query:
		from, to := g.window(rng)
		step := steps[rng.IntN(len(steps))]
		o := op{kind: "query", method: http.MethodGet, building: b, series: g.series[rng.IntN(len(g.series))],
			agg: aggs[rng.IntN(len(aggs))], fromS: from, toS: to, step: step, want: int((to-from)/step) + 1}
		o.path = fmt.Sprintf("/twins/%s/query?building=%d&series=%s&agg=%s&from_s=%d&to_s=%d&step_s=%d",
			g.id, b, o.series, o.agg, from, to, step)
		return o
	case r < m.query+m.csv:
		from, to := g.window(rng)
		step := csvSteps[rng.IntN(len(csvSteps))]
		names := g.series[rng.IntN(len(g.series))] + "," + g.series[rng.IntN(len(g.series))]
		return op{kind: "csv", method: http.MethodGet, want: int((to-from)/step) + 1,
			path: fmt.Sprintf("/twins/%s/query?format=csv&building=%d&series=%s&from_s=%d&to_s=%d&step_s=%d", g.id, b, names, from, to, step)}
	case r < m.query+m.csv+m.series:
		return op{kind: "series", method: http.MethodGet, want: len(g.series), path: fmt.Sprintf("/twins/%s/series?building=%d", g.id, b)}
	case r < m.query+m.csv+m.series+m.status:
		return op{kind: "status", method: http.MethodGet, path: "/twins/" + g.id}
	}
	var body string
	switch rng.IntN(3) {
	case 0:
		body = fmt.Sprintf(`{"kind": "door", "building": %d, "door_s": %d}`, b, 5+rng.IntN(116))
	case 1:
		tc := 28 + 6*rng.Float64()
		body = fmt.Sprintf(`{"kind": "climate", "t_c": %.2f, "dew_c": %.2f}`, tc, tc-2-3*rng.Float64())
	default:
		f := fmt.Sprintf(faultKind[rng.IntN(len(faultKind))], rng.IntN(61))
		body = fmt.Sprintf(`{"kind": "fault", "building": %d, "faults": [%s]}`, b, f)
	}
	return op{kind: "event", method: http.MethodPost, path: "/twins/" + g.id + "/events", body: []byte(body)}
}

// atKey occurs once per bucket in a /query JSON answer.
var atKey = []byte(`"at_s":`)

// checkAnswer validates a response against the op. A status answer's tick
// count is returned (0 for other kinds).
func checkAnswer(o op, code int, body []byte, latest *atomic.Uint64) (uint64, error) {
	want := http.StatusOK
	if o.kind == "event" {
		want = http.StatusAccepted
	}
	if code != want {
		return 0, fmt.Errorf("%s %s: status %d, want %d: %.200s", o.method, o.path, code, want, body)
	}
	switch o.kind {
	case "query":
		if !bytes.HasPrefix(body, []byte(`{"building":`)) {
			return 0, fmt.Errorf("%s: not a query answer: %.200s", o.path, body)
		}
		if n := bytes.Count(body, atKey); n != o.want {
			return 0, fmt.Errorf("%s: %d buckets, want %d", o.path, n, o.want)
		}
	case "csv":
		if rows := bytes.Count(body, []byte("\n")) - 1; rows != o.want {
			return 0, fmt.Errorf("%s: %d CSV rows, want %d", o.path, rows, o.want)
		}
	case "series":
		var r struct {
			Series []string `json:"series"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return 0, fmt.Errorf("%s: %w", o.path, err)
		}
		if len(r.Series) != o.want {
			return 0, fmt.Errorf("%s: %d series, want %d", o.path, len(r.Series), o.want)
		}
	case "status":
		var st twinStatus
		if err := json.Unmarshal(body, &st); err != nil {
			return 0, fmt.Errorf("%s: %w", o.path, err)
		}
		if st.Err != "" {
			return 0, fmt.Errorf("twin runner failed: %s", st.Err)
		}
		if latest != nil {
			for cur := latest.Load(); st.Ticks > cur && !latest.CompareAndSwap(cur, st.Ticks); cur = latest.Load() {
			}
		}
		return st.Ticks, nil
	}
	return 0, nil
}

// clientStats is what the lanes of one phase measured.
type clientStats struct {
	reads, events *dist // ms

	mu     sync.Mutex
	readAt []float64    // completion of each successful read, s since phase start
	ticks  [][2]float64 // (s since phase start, ticks) from status answers
}

// rateWindow is the width of the windows throughput is measured over;
// the reported rate is the median window's, so a burst of interference
// moves one window, not the result.
const rateWindow = time.Second

// readRate is the median over whole rateWindows of reads completed per
// second.
func (cs *clientStats) readRate(dur time.Duration) float64 {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return medianWindowRate(cs.readAt, dur)
}

// tickRate is the median over windows of the runner's ticks per second,
// each window's rate taken between its first and last status answer.
func (cs *clientStats) tickRate(dur time.Duration) float64 {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return medianWindowSlope(cs.ticks, dur, 2*rateWindow)
}

func newClientStats() *clientStats {
	return &clientStats{reads: &dist{}, events: &dist{}}
}

// clientPhase runs closed-loop lanes until the deadline: each lane sends
// its next request only after the previous answer arrived.
func clientPhase(ctx context.Context, env *twinEnv, gen *opGen, lanes int, seed uint64, dur time.Duration, tr *tracer, tl *tally) (*clientStats, time.Duration) {
	cs := newClientStats()
	deadline := time.Now().Add(dur)
	t0 := time.Now()
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(runner.DeriveSeed(seed, tagQueries), uint64(lane)))
			buf := &bytes.Buffer{}
			for seq := int64(0); time.Now().Before(deadline) && ctx.Err() == nil; seq++ {
				o := gen.next(rng)
				var code int
				var body []byte
				var ticks uint64
				d, err := tr.call(lane, int64(lane)<<40|seq, 0, "http."+o.kind, func(int) (err error) {
					code, body, err = env.doBuf(ctx, o.method, o.path, o.body, buf)
					return err
				})
				if err == nil {
					_, err = tr.call(lane, int64(lane)<<40|seq, 0, "bzbench.verify", func(int) (err error) {
						ticks, err = checkAnswer(o, code, body, gen.latest)
						return err
					})
				}
				done := time.Since(t0).Seconds()
				ms := float64(d) / float64(time.Millisecond)
				ok := tl.record(err)
				dd := cs.reads
				if !o.isRead() {
					dd = cs.events
				}
				if ok {
					dd.add(ms)
				} else {
					dd.miss()
				}
				if ok && o.isRead() {
					cs.mu.Lock()
					cs.readAt = append(cs.readAt, done)
					if o.kind == "status" {
						cs.ticks = append(cs.ticks, [2]float64{done, float64(ticks)})
					}
					cs.mu.Unlock()
				}
			}
		}(lane)
	}
	wg.Wait()
	return cs, time.Since(t0)
}

// twinSetups builds the service setupReps times, keeping the last one,
// and returns it with the set-up times in seconds.
func twinSetups(ctx context.Context, rc runCfg, cfg twin.Config, warm uint64) (*twinEnv, []float64, error) {
	var env *twinEnv
	var setup []float64
	for t0 := time.Now(); needSetup(len(setup), time.Since(t0)); {
		if env != nil {
			env.close()
		}
		t0 := time.Now()
		var err error
		env, err = startTwinEnv(ctx, rc.lanes, cfg, warm)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	return env, setup, nil
}

func twinSeed(rc runCfg) uint64 { return runner.DeriveSeed(rc.seed, tagFleet) | 1 }
