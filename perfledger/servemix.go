package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/kernelreg"
	"repro/internal/roofline"
	"repro/internal/serve"
)

// serveDatasets are the serve-mix datasets in Zipf rank order, hottest
// first: uniform (nell2), Kronecker (regS), power-law (irrS) and skewed
// (choa) 3-D tensors, a uniform and a graph 4-D tensor (crime4d,
// enron4d), and irr2S4d, a 4-D power-law tensor that is hypersparse in
// its two long modes (281k rows each at 10k non-zeros).
var serveDatasets = []string{"nell2", "regS", "irrS", "choa", "crime4d", "enron4d", "irr2S4d"}

// distDatasets take the ranks:4 requests. irr2S4d and enron4d are left
// out: each simulated rank holds a dims[mode]×R partial, which on their
// long modes does not fit the budget and would be refused 413.
var distDatasets = []string{"nell2", "regS", "irrS", "choa", "crime4d"}

const (
	// serveNNZ is the stand-in size of every serve-mix dataset. NOTES.md
	// gives the memory measurements that set it at 10k rather than 20k.
	serveNNZ = 10000
	// serveBudget is the daemon's MemBudget: it admits the largest
	// single request of the mix (a cold Mttkrp on irr2S4d, about 58 MB
	// by kernelreg.EstimateFootprint), and a second one waits at the
	// gate (AdmitWait) instead of being shed.
	serveBudget  = 64 << 20
	serveClients = 2
	// seqLen is the length of the generated request sequence; runs stop
	// on time long before it is used up.
	seqLen = 20000
)

// mixReq is one request of the generated sequence.
type mixReq struct {
	idx  int
	kind string // plain, verify, dist or ooc
	req  serve.RunRequest
}

// genRequests builds the seeded request sequence from decks of
// deckSize requests. Every deck has the same make-up: datasets follow a
// Zipf law (s = 1) over a fixed rank order; 10% of the requests verify,
// 5% ask for ranks:4 (dist), 5% for backend:ooc, and the rest are plain;
// each dataset's plain and verify requests hit the same (kernel, mode)
// pairs in every deck, while the format rotates from deck to deck, so
// successive decks cover every host (kernel, format) and mode and keep
// missing the count-bounded cache. The seed shuffles each deck: it
// changes which request comes when, not what a window of whole decks
// serves.
//
// The first warm requests are a warm-up, excluded from timing. It loads
// every workbench and computes every serial-COO reference (one verified
// COO request per dataset, kernel and mode), builds every conversion the
// decks will ask for (one plain request per dataset, kernel, format and
// mode, and every ooc and dist request of a format rotation), then
// serves deck 0, so the LRU holds the mix's hot keys when timing starts
// with deck 1. Without the last two steps the first timed decks pay for
// conversions and for refilling the cache, and a slow run, which
// completes fewer decks, weighs them more.
func genRequests(seed int64, n int) (seq []mixReq, warm int, err error) {
	order := map[string]int{}
	for _, name := range serveDatasets {
		e, err := dataset.ByID(name)
		if err != nil {
			return nil, 0, err
		}
		order[name] = e.Order()
		for _, km := range kernelModes(e.Order()) {
			seq = append(seq, mixReq{kind: "verify", req: serve.RunRequest{
				Dataset: name, Kernel: km.k.String(), Format: "COO", Mode: km.mode, Verify: true}})
		}
	}
	for _, name := range serveDatasets {
		for _, km := range kernelModes(order[name]) {
			for _, f := range kernelreg.FormatsFor(km.k) {
				seq = append(seq, mixReq{kind: "plain", req: serve.RunRequest{
					Dataset: name, Kernel: km.k.String(), Format: f.String(), Mode: km.mode}})
			}
		}
		for c := 0; c < 2*order[name]; c++ {
			seq = append(seq, mixReq{kind: "ooc", req: deckRequest("ooc", name, order[name], c, 0)})
		}
	}
	for _, name := range distDatasets {
		for c := 0; c < 4*order[name]; c++ {
			seq = append(seq, mixReq{kind: "dist", req: deckRequest("dist", name, order[name], c, 0)})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for deck := 0; deck == 0 || len(seq) < warm+n; deck++ {
		d := buildDeck(deck, order)
		rng.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
		seq = append(seq, d...)
		if deck == 0 {
			warm = len(seq)
		}
	}
	seq = seq[:warm+n]
	for i := range seq {
		seq[i].idx = i
	}
	return seq, warm, nil
}

// deckSize is the number of requests in a deck.
const deckSize = 400

// buildDeck lists deck number deck in a fixed order.
func buildDeck(deck int, order map[string]int) []mixReq {
	kinds := []struct {
		kind  string
		count int
		names []string
	}{
		{"plain", deckSize * 80 / 100, serveDatasets},
		{"verify", deckSize * 10 / 100, serveDatasets},
		{"dist", deckSize * 5 / 100, distDatasets},
		{"ooc", deckSize * 5 / 100, serveDatasets},
	}
	var out []mixReq
	for _, k := range kinds {
		for i, c := range zipfCounts(k.count, len(k.names)) {
			ds := k.names[i]
			for j := 0; j < c; j++ {
				out = append(out, mixReq{kind: k.kind, req: deckRequest(k.kind, ds, order[ds], deck, j)})
			}
		}
	}
	return out
}

// zipfCounts splits total over n ranks in proportion to 1/rank, rounding
// by largest remainder so the counts sum to total.
func zipfCounts(total, n int) []int {
	var h float64
	for r := 1; r <= n; r++ {
		h += 1 / float64(r)
	}
	counts := make([]int, n)
	rem := make([]float64, n)
	left := total
	for r := range counts {
		exact := float64(total) / h / float64(r+1)
		counts[r] = int(exact)
		rem[r] = exact - float64(counts[r])
		left -= counts[r]
	}
	for ; left > 0; left-- {
		best := 0
		for r := range rem {
			if rem[r] > rem[best] {
				best = r
			}
		}
		counts[best]++
		rem[best] = -1
	}
	return counts
}

type kernelMode struct {
	k    roofline.Kernel
	mode int
}

// kernelModes lists every (kernel, mode) of a tensor of the given order;
// the mode-independent kernels have mode 0 only.
func kernelModes(order int) []kernelMode {
	var out []kernelMode
	for _, k := range roofline.Kernels {
		modes := 1
		if kernelreg.ModeDependent(k) {
			modes = order
		}
		for m := 0; m < modes; m++ {
			out = append(out, kernelMode{k, m})
		}
	}
	return out
}

// deckRequest is the j-th request of a kind on dataset ds in deck deck.
// Plain slot j takes the j-th (kernel, mode) pair and verify slot j the
// pair at 3j+1, so verify spreads over the kernels; the format is the
// deck number plus the slot's round over the pairs, modulo the kernel's
// formats. dist and ooc requests cycle through their kernels, formats
// and modes.
func deckRequest(kind, ds string, order, deck, j int) serve.RunRequest {
	switch kind {
	case "dist":
		c := (deck + j) % (4 * order)
		return serve.RunRequest{Dataset: ds, Kernel: []string{"Mttkrp", "Ttv"}[c%2], Format: []string{"COO", "HiCOO"}[c/2%2],
			Mode: c / 4, Ranks: 4}
	case "ooc":
		c := (deck + j) % (2 * order)
		return serve.RunRequest{Dataset: ds, Kernel: []string{"Mttkrp", "Ttv"}[c%2], Format: "COO", Backend: "ooc", Mode: c / 2}
	}
	kms := kernelModes(order)
	pick := j
	if kind == "verify" {
		pick = 3*j + 1
	}
	km := kms[pick%len(kms)]
	formats := kernelreg.FormatsFor(km.k)
	f := formats[(deck+pick/len(kms))%len(formats)]
	return serve.RunRequest{Dataset: ds, Kernel: km.k.String(), Format: f.String(), Mode: km.mode, Verify: kind == "verify"}
}

// seqDigest hashes the request sequence for the exact-count check.
func seqDigest(seq []mixReq) string {
	h := sha256.New()
	for _, m := range seq {
		fmt.Fprintf(h, "%s %+v\n", m.kind, m.req)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// daemon is an in-process pastad on loopback.
type daemon struct {
	s    *serve.Server
	hs   *serve.HTTPServer
	base string
	hc   *http.Client
}

func startDaemon(seed int64) (*daemon, error) {
	s := serve.New(serve.Config{
		NNZ:       serveNNZ,
		Seed:      seed,
		MemBudget: serveBudget,
		AdmitWait: time.Minute,
		Timeout:   time.Minute,
	})
	hs, err := serve.StartHTTP("127.0.0.1:0", s.Handler())
	if err != nil {
		return nil, err
	}
	hc := &http.Client{
		Transport: &http.Transport{Proxy: nil, MaxIdleConnsPerHost: serveClients},
		Timeout:   2 * time.Minute,
	}
	return &daemon{s: s, hs: hs, base: "http://" + hs.Addr(), hc: hc}, nil
}

// stop shuts the listener down and drains the daemon.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfledger: daemon shutdown:", err)
	}
	if err := d.s.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfledger: daemon drain:", err)
	}
	d.hc.CloseIdleConnections()
}

// reqResult is one completed request as the client saw it.
type reqResult struct {
	m      mixReq
	status int
	rtt    time.Duration
	done   time.Duration // completion time since the loop started
	resp   *serve.RunResponse
	err    error
}

// post sends one /run request.
func (d *daemon) post(req serve.RunRequest) (int, *serve.RunResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, nil, err
	}
	hr, err := d.hc.Post(d.base+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer hr.Body.Close()
	data, err := io.ReadAll(hr.Body)
	if err != nil {
		return hr.StatusCode, nil, err
	}
	if hr.StatusCode != http.StatusOK {
		return hr.StatusCode, nil, fmt.Errorf("status %d: %s", hr.StatusCode, strings.TrimSpace(string(data)))
	}
	var resp serve.RunResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return hr.StatusCode, nil, err
	}
	return hr.StatusCode, &resp, nil
}

// closedLoop runs serveClients clients with no think time over seq
// from index from to index to: each sends its next request only when the
// previous one has completed. With a non-zero deadline the clients stop
// at the first deck boundary (a multiple of deckSize past from) claimed
// after it, so the window serves whole decks; requests already claimed
// complete and are counted.
func (b *bench) closedLoop(d *daemon, seq []mixReq, from, to int, deadline time.Duration) []reqResult {
	var next, stop atomic.Int64
	next.Store(int64(from))
	stop.Store(int64(to))
	start := time.Now()
	per := make([][]reqResult, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if deadline > 0 && (i-from)%deckSize == 0 && time.Since(start) >= deadline {
					for {
						cur := stop.Load()
						if int64(i) >= cur || stop.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
				}
				if i >= int(stop.Load()) {
					return
				}
				m := seq[i]
				sp := begin(b.tr, "serve.POST /run", fmt.Sprintf("%s %+v", m.kind, m.req), i, span{}, 1+c)
				t0 := time.Now()
				status, resp, err := d.post(m.req)
				t1 := time.Now()
				sp.end()
				per[c] = append(per[c], reqResult{m: m, status: status, rtt: t1.Sub(t0), done: t1.Sub(start), resp: resp, err: err})
			}
		}(c)
	}
	wg.Wait()
	var all []reqResult
	for _, rs := range per {
		all = append(all, rs...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].done < all[j].done })
	return all
}

// judge counts one response as failed (error, non-2xx, or a section the
// request asked for missing) or wrong (deviation above tolerance).
func (b *bench) judge(r reqResult) (failed bool) {
	what := fmt.Sprintf("request %d (%s %+v)", r.m.idx, r.m.kind, r.m.req)
	switch {
	case r.err != nil:
		fmt.Fprintf(os.Stderr, "perfledger: %s failed: %v\n", what, r.err)
		return true
	case r.m.kind == "verify" && r.resp.Deviation == nil:
		fmt.Fprintf(os.Stderr, "perfledger: %s: no deviation in a verify response\n", what)
		return true
	case r.m.kind == "verify" && *r.resp.Deviation > tolerance:
		b.bad("%s: deviation %.3g exceeds %g", what, *r.resp.Deviation, tolerance)
		return true
	case r.m.kind == "dist" && (r.resp.Dist == nil || r.resp.Dist.Ranks != r.m.req.Ranks):
		fmt.Fprintf(os.Stderr, "perfledger: %s: no dist section for %d ranks\n", what, r.m.req.Ranks)
		return true
	case r.m.kind == "ooc" && r.resp.Backend != "ooc":
		fmt.Fprintf(os.Stderr, "perfledger: %s: served on backend %q, not ooc\n", what, r.resp.Backend)
		return true
	case r.resp.OOC != nil && r.resp.OOC.PeakBytes > r.resp.OOC.Budget:
		b.bad("%s: out-of-core peak %d bytes exceeds its budget %d", what, r.resp.OOC.PeakBytes, r.resp.OOC.Budget)
		return true
	}
	return false
}

// scrape reads the daemon's /metrics counters.
func (d *daemon) scrape(b *bench) (map[string]float64, error) {
	sp := begin(b.tr, "serve.GET /metrics", "", -1, span{}, 0)
	defer sp.end()
	hr, err := d.hc.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer hr.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(hr.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// serveSession is one measured serve-mix window.
type serveSession struct {
	results        []reqResult
	wall           time.Duration
	before, after  map[string]float64
	peakRSS        float64
	seq            []mixReq
	warm           int
	setupS         float64
	oocProbeCounts map[string]string
}

// serveMix sets up the daemon setupReps times (inputs, start, warm-up
// prefix), keeps the last, and measures the closed loop for dur, rounded
// up to whole decks.
func (b *bench) serveMix(dur time.Duration) (*serveSession, error) {
	seq, warm, err := genRequests(b.seed, seqLen)
	if err != nil {
		return nil, err
	}
	dir, err := filepath.Abs(filepath.Join(b.work, "serve"))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// The daemon reads its datasets from dir; the variable is restored
	// when the window ends, so later inputs are generated, not read.
	if old, ok := os.LookupEnv(dataset.TensorDirEnv); ok {
		defer os.Setenv(dataset.TensorDirEnv, old)
	} else {
		defer os.Unsetenv(dataset.TensorDirEnv)
	}
	if err := os.Setenv(dataset.TensorDirEnv, dir); err != nil {
		return nil, err
	}
	var d *daemon
	setup, err := repeatSetup(func() error {
		if _, err := writeInputs(dir, serveDatasets, serveNNZ, b.seed); err != nil {
			return err
		}
		var err error
		if d, err = startDaemon(b.seed); err != nil {
			return err
		}
		for _, r := range b.closedLoop(d, seq, 0, warm, 0) {
			if r.err != nil {
				return fmt.Errorf("warm-up request %d: %w", r.m.idx, r.err)
			}
		}
		return nil
	}, func() {
		d.stop()
		d = nil
	})
	if err != nil {
		if d != nil {
			d.stop()
		}
		return nil, err
	}
	defer d.stop()
	ss := &serveSession{seq: seq, warm: warm, setupS: setup}
	if ss.before, err = d.scrape(b); err != nil {
		return nil, err
	}
	start := time.Now()
	ss.results = b.closedLoop(d, seq, warm, len(seq), dur)
	ss.wall = time.Since(start)
	ss.peakRSS = peakRSSMiB()
	if ss.after, err = d.scrape(b); err != nil {
		return nil, err
	}
	ss.oocProbeCounts, err = b.oocProbe(d, seq)
	return ss, err
}

// oocProbe replays the first few distinct ooc requests of the sequence
// one at a time and records the tiles and bytes each streamed, from the
// daemon's ooc counters: exact counts that must repeat for the seed.
func (b *bench) oocProbe(d *daemon, seq []mixReq) (map[string]string, error) {
	out := map[string]string{}
	for _, m := range seq {
		if len(out) == 4 {
			break
		}
		key := fmt.Sprintf("ooc %s %s m%d", m.req.Dataset, m.req.Kernel, m.req.Mode)
		if _, dup := out[key]; dup || m.kind != "ooc" {
			continue
		}
		before, err := d.scrape(b)
		if err != nil {
			return nil, err
		}
		if _, _, err := d.post(m.req); err != nil {
			return nil, fmt.Errorf("ooc probe %s: %w", key, err)
		}
		after, err := d.scrape(b)
		if err != nil {
			return nil, err
		}
		out[key] = fmt.Sprintf("tiles=%g bytes=%g", after["pasta_ooc_tiles"]-before["pasta_ooc_tiles"],
			after["pasta_ooc_bytes_read"]-before["pasta_ooc_bytes_read"])
	}
	return out, nil
}

func runServeMix(b *bench) error {
	ss, err := b.serveMix(b.seconds)
	if err != nil {
		return err
	}
	b.set("setup_s", ss.setupS, "s", "median of", fmt.Sprint(setupReps), "set-ups: inputs, daemon start,", fmt.Sprint(ss.warm), "warm-up requests")
	b.set("peak_rss_mb", ss.peakRSS, "MiB", fmt.Sprintf("process peak RSS; MemBudget %d MiB", serveBudget>>20))

	var rtt []float64
	for _, r := range ss.results {
		b.attempted++
		if b.judge(r) {
			b.failed++
		}
		rtt = append(rtt, ms(r.rtt))
	}
	n := len(ss.results)
	decks := ss.decks()
	var walls, rate, gf, mgf []float64
	for _, d := range decks {
		walls = append(walls, d.wall.Seconds())
		rate = append(rate, float64(deckSize)/d.wall.Seconds())
		gf = append(gf, safeDiv(float64(d.flops), d.run)/1e9)
		mgf = append(mgf, safeDiv(float64(d.mttFlops), d.mttRun)/1e9)
	}
	nd := fmt.Sprintf("(n=%d decks)", len(decks))
	b.set("pass_s", median(walls), "s", fmt.Sprintf("median wall of one %d-request deck", deckSize), nd)
	b.set("gflops", median(gf), "GFLOP/s", "sum flops / sum server trial time of a deck's unbatched responses, median", nd)
	b.set("mttkrp_gflops", median(mgf), "GFLOP/s", "Mttkrp requests only")
	b.set("req_per_s", median(rate), "req/s", fmt.Sprintf("median over decks; %d completed in %.1fs, %d closed-loop clients, no think time",
		n, ss.wall.Seconds(), serveClients))
	b.set("req_p50_ms", quantile(rtt, 0.5), "ms", fmt.Sprintf("client round trip (n=%d)", n))
	b.set("req_p99_ms", quantile(rtt, 0.99), "ms", fmt.Sprintf("client round trip (n=%d)", n))

	b.serveCounts(ss)
	return nil
}

// deckStats is what one deck of the window measured.
type deckStats struct {
	wall            time.Duration
	flops, mttFlops int64
	run, mttRun     float64 // server-reported trial seconds
}

// decks splits the window into its whole decks. A deck's wall is the
// time from the previous deck's last completion to its own; its flops
// and run time count each unbatched response once. The stop at a deck
// boundary can let one request of the next deck through; a trailing
// deck that did not complete is dropped.
func (ss *serveSession) decks() []deckStats {
	var out []deckStats
	var end []time.Duration
	var n []int
	for _, r := range ss.results {
		d := (r.m.idx - ss.warm) / deckSize
		for len(out) <= d {
			out = append(out, deckStats{})
			end = append(end, 0)
			n = append(n, 0)
		}
		n[d]++
		if r.done > end[d] {
			end[d] = r.done
		}
		if r.resp == nil || r.resp.Batched {
			continue
		}
		out[d].flops += r.resp.Flops
		out[d].run += r.resp.ElapsedSec
		if r.m.req.Kernel == "Mttkrp" {
			out[d].mttFlops += r.resp.Flops
			out[d].mttRun += r.resp.ElapsedSec
		}
	}
	prev := time.Duration(0)
	for d, e := range end {
		out[d].wall = e - prev
		prev = e
	}
	for len(out) > 0 && n[len(out)-1] < deckSize {
		out = out[:len(out)-1]
	}
	return out
}

// serveCounts records the exact counts of a serve-mix run: the request
// sequence, every dist response's communication, and the ooc probe.
func (b *bench) serveCounts(ss *serveSession) {
	b.counts["requests"] = seqDigest(ss.seq)
	for _, r := range ss.results {
		if r.resp != nil && r.resp.Dist != nil {
			b.counts[fmt.Sprintf("dist request %d", r.m.idx)] = fmt.Sprintf("bytes=%d messages=%d", r.resp.Dist.CommBytes, r.resp.Dist.CommMessages)
		}
	}
	for k, v := range ss.oocProbeCounts {
		b.counts[k] = v
	}
}

func safeDiv(a, b float64) float64 {
	if b == 0 || math.IsNaN(b) {
		return 0
	}
	return a / b
}
