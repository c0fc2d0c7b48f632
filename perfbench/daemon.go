package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"

	"valueprof/internal/analysis"
	"valueprof/internal/minic"
	"valueprof/internal/serve"
	"valueprof/internal/workloads"
)

// daemon is an in-process vprofd: serve.New with a fresh durable state
// directory, behind an httptest server on loopback.
type daemon struct {
	srv    *serve.Server
	hs     *httptest.Server
	dir    string
	images map[string][]byte // workload name → canonical VPX1 image
	b64    map[string]string
}

// startDaemon is the daemon workload's set-up: compile every workload
// from MiniC source, verify it, save its image, and start the server
// with a fresh state directory under stateRoot and default workers.
func startDaemon(ws []*workloads.Workload, stateRoot string, tr *tracer) (*daemon, error) {
	d := &daemon{images: map[string][]byte{}, b64: map[string]string{}}
	for _, w := range ws {
		s := tr.begin("minic.compile", -1, -1)
		prog, err := minic.Compile(w.Source)
		tr.end(s, 0)
		if err != nil {
			return nil, fmt.Errorf("compiling %s: %w", w.Name, err)
		}
		s = tr.begin("analysis.verify", -1, -1)
		diags := analysis.Verify(prog)
		tr.end(s, int64(len(diags)))
		if err := diags.Err(); err != nil {
			return nil, fmt.Errorf("verifying %s: %w", w.Name, err)
		}
		var buf bytes.Buffer
		if err := prog.Save(&buf); err != nil {
			return nil, fmt.Errorf("saving %s: %w", w.Name, err)
		}
		d.images[w.Name] = buf.Bytes()
		d.b64[w.Name] = base64.StdEncoding.EncodeToString(buf.Bytes())
		if _, err := w.Compile(); err != nil {
			return nil, err
		}
	}
	if err := os.MkdirAll(stateRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(stateRoot, "vprofd-state-")
	if err != nil {
		return nil, err
	}
	d.dir = dir
	srv, err := serve.New(serve.Options{StateDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d.srv = srv
	d.hs = httptest.NewServer(srv.Handler())
	return d, nil
}

// stop shuts the server down, waits for its workers and connections,
// and removes the state directory.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	d.hs.Close()
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// served is one job as the client saw it.
type served struct {
	job      *daemonJob
	idx      int // span job id, unique across clients
	root     int // "daemon.job" span, open from submit to result
	id       string
	digest   string
	hit      bool
	start    time.Time
	latency  time.Duration // submit → result body received
	sum      [32]byte      // of the result body
	size     int
	complete bool
}

// clientRun is one closed-loop client: it keeps two jobs outstanding
// over a single keep-alive connection and collects results in
// submission order, because vprofd's callers wait for their profile.
type clientRun struct {
	d      *daemon
	name   string
	base   int // span job ids of this client start here
	hc     *http.Client
	tr     *tracer
	chk    *checker
	jobs   []*served
	rounds []float64 // wall seconds per round
	traced []bool    // whether each round was traced
}

func (d *daemon) newClient(name string, base int, chk *checker, tr *tracer) *clientRun {
	tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &clientRun{d: d, name: name, base: base, hc: &http.Client{Transport: tp}, tr: tr, chk: chk}
}

// loadPlan says how long clients play and which rounds are traced.
type loadPlan struct {
	deadline  time.Time
	minRounds int // rounds played however early the deadline
	traced    func(round int) bool
	// pause, when set, runs after each round, with the number of rounds
	// played so far, while every client is idle. Its time is not part
	// of the load.
	pause func(rounds int)
}

// run plays rounds from..to-1.
func (c *clientRun) run(ctx context.Context, gen func(round int) []daemonJob, from, to int, traced func(round int) bool) {
	for r := from; r < to && ctx.Err() == nil; r++ {
		var tr *tracer
		if c.tr != nil && traced(r) {
			tr = c.tr
		}
		t := time.Now()
		c.round(ctx, gen(r), tr)
		c.rounds = append(c.rounds, time.Since(t).Seconds())
		c.traced = append(c.traced, tr != nil)
	}
}

func (c *clientRun) round(ctx context.Context, jobs []daemonJob, tr *tracer) {
	var pending []*served
	collected := make([]bool, len(jobs))
	collect := func() {
		s := pending[0]
		pending = pending[1:]
		c.collect(ctx, s, tr)
		collected[s.job.Pos] = true
	}
	for i := range jobs {
		j := &jobs[i]
		// A dependency must be in the cache before its repeat or overlap
		// is submitted.
		for j.Dep >= 0 && !collected[j.Dep] && len(pending) > 0 {
			collect()
		}
		for len(pending) >= 2 {
			collect()
		}
		s := c.submit(ctx, j, tr)
		if s == nil {
			collected[j.Pos] = true
			continue
		}
		if s.hit {
			c.collect(ctx, s, tr)
			collected[j.Pos] = true
			continue
		}
		pending = append(pending, s)
	}
	for len(pending) > 0 {
		collect()
	}
}

// submit posts one job. It returns nil when the submission failed.
func (c *clientRun) submit(ctx context.Context, j *daemonJob, tr *tracer) *served {
	s := &served{job: j, idx: c.base + len(c.jobs)}
	c.jobs = append(c.jobs, s)
	id := s.idx
	root := tr.begin("daemon.job", -1, id)
	s.root = root
	if tr != nil {
		// The client computes the job's content address itself, to
		// time serve.DigestOf and cross-check the daemon's.
		cfg := wireConfig(j.Config)
		c.chk.op(j.name()+" config", cfg.Normalize())
		sp := tr.begin("serve.digest", root, id)
		dg, err := serve.DigestOf(c.d.images[j.Workload.Name], j.Inputs, &cfg)
		tr.end(sp, 0)
		c.chk.op(j.name()+" digest", err)
		s.digest = dg
	}
	s.start = time.Now()
	body, err := json.Marshal(serve.JobRequest{
		Client:  c.name,
		Program: serve.WireProgram{Image: c.d.b64[j.Workload.Name]},
		Inputs:  j.Inputs,
		Config:  wireConfig(j.Config),
	})
	if !c.chk.op(j.name()+" encode", err) {
		tr.end(root, 0)
		return nil
	}
	sp := tr.begin("serve.submit", root, id)
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, c.d.hs.URL+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	var sr struct {
		Job serve.JobStatus `json:"job"`
	}
	if err == nil {
		err = decodeBody(resp, &sr)
		if err == nil && resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
			err = fmt.Errorf("submit status %d", resp.StatusCode)
		}
	}
	tr.end(sp, int64(len(body)))
	if !c.chk.op(j.name()+" submit", err) {
		tr.end(root, 0)
		return nil
	}
	s.id = sr.Job.ID
	s.hit = resp.StatusCode == http.StatusOK
	var cerr error
	if want := j.Kind == kindRepeat; s.hit != want {
		cerr = fmt.Errorf("cache hit %v, want %v", s.hit, want)
	} else if s.digest != "" && s.digest != sr.Job.Digest {
		cerr = fmt.Errorf("client digest %s != daemon %s", s.digest, sr.Job.Digest)
	}
	c.chk.op(j.name()+" cache identity", cerr)
	s.digest = sr.Job.Digest
	return s
}

// collect waits for a submitted job's "done" event and fetches its
// result, completing its latency.
func (c *clientRun) collect(ctx context.Context, s *served, tr *tracer) {
	j, id := s.job, s.idx
	if !s.hit {
		sp := tr.begin("serve.wait", s.root, id)
		err := c.waitDone(ctx, s.id)
		tr.end(sp, 0)
		if !c.chk.op(j.name()+" wait", err) {
			tr.end(s.root, 0)
			return
		}
	}
	sp := tr.begin("serve.result_fetch", s.root, id)
	body, err := c.get(ctx, "/v1/jobs/"+s.id+"/result")
	s.latency = time.Since(s.start)
	tr.end(sp, int64(len(body)))
	tr.end(s.root, 0)
	if !c.chk.op(j.name()+" result", err) {
		return
	}
	s.sum = sha256.Sum256(body)
	s.size = len(body)
	s.complete = true
}

// waitDone reads the job's SSE stream until its "done" event and
// requires the job to have completed.
func (c *clientRun) waitDone(ctx context.Context, id string) error {
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, c.d.hs.URL+"/v1/jobs/"+id+"/stream", nil)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stream status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	done := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: done" {
			done = true
			continue
		}
		if done && strings.HasPrefix(line, "data: ") {
			var st serve.JobStatus
			if err := json.Unmarshal([]byte(line[len("data: "):]), &st); err != nil {
				return err
			}
			// Drain the rest so the connection is reused.
			io.Copy(io.Discard, resp.Body)
			if st.State != serve.StateCompleted {
				return fmt.Errorf("job %s ended %s", id, st.State)
			}
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("stream of %s ended without a done event", id)
}

func (c *clientRun) get(ctx context.Context, path string) ([]byte, error) {
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, c.d.hs.URL+path, nil)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

func decodeBody(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// stats fetches GET /v1/stats.
func (d *daemon) stats(ctx context.Context) (*serve.Stats, error) {
	c := d.newClient("stats", 0, &checker{}, nil)
	defer c.hc.CloseIdleConnections()
	body, err := c.get(ctx, "/v1/stats")
	if err != nil {
		return nil, err
	}
	var st serve.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// load runs closed-loop clients concurrently, one goroutine each,
// round by round, until they have played minRounds rounds and the
// deadline has passed. A round ends when its last client has finished
// it. It returns the clients with the wall time of all rounds.
func (d *daemon) load(ctx context.Context, names []string, gens []func(int) []daemonJob, chk *checker, tr *tracer,
	plan loadPlan) ([]*clientRun, time.Duration) {
	clients := make([]*clientRun, len(names))
	chks := make([]checker, len(names))
	for i, n := range names {
		clients[i] = d.newClient(n, (i+1)<<20, &chks[i], tr)
	}
	var window time.Duration
	for r := 0; r < plan.minRounds || time.Now().Before(plan.deadline); r++ {
		start := time.Now()
		var wg sync.WaitGroup
		for i := range clients {
			wg.Add(1)
			go func(c *clientRun, gen func(int) []daemonJob) {
				defer wg.Done()
				c.run(ctx, gen, r, r+1, plan.traced)
			}(clients[i], gens[i])
		}
		wg.Wait()
		window += time.Since(start)
		if plan.pause != nil {
			plan.pause(r + 1)
		}
		if ctx.Err() != nil {
			break
		}
	}
	for i := range chks {
		clients[i].hc.CloseIdleConnections()
		chk.attempted += chks[i].attempted
		chk.failed += chks[i].failed
		chk.msgs = append(chk.msgs, chks[i].msgs...)
	}
	return clients, window
}
