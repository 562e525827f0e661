package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"time"

	"rlcint"
	"rlcint/internal/serve"
)

const (
	// nominalRate is the open-loop arrival rate of the timed window.
	nominalRate = 200.0 // requests/s
	// clientConns caps the load generator's connections to the server.
	clientConns = 2
	// sloLimit is the p99 latency limit the SLO-rate search holds to.
	sloLimit = 250 * time.Millisecond
	// sloStep is the length of one rate step of the SLO-rate search.
	sloStep = 4 * time.Second
)

// hotCounts is the size of each kind's hot key set.
var hotCounts = [nKinds]int{32, 16, 8, 4, 2, 6, 3, 3, 3}

// freshCheckCap bounds how many fresh-key responses of each kind a run
// re-derives through the facade after the window (the cheap kinds are all
// checked).
var freshCheckCap = [nKinds]int{16, 1 << 30, 6, 2, 1, 1 << 30, 0, 1 << 30, 1 << 30}

type hotKey struct {
	q    any
	body []byte // the verified response every later hit must repeat
}

// request is one scheduled request of the mix.
type request struct {
	kind int
	hot  int // hot key index, -1 for a fresh key
	q    any
	body []byte
}

// reqRecord is what the load generator saw for one request.
type reqRecord struct {
	kind     int
	hot      bool
	q        any
	xcache   string
	degraded bool
	proto    int    // HTTP major version
	body     []byte // kept for fresh keys only
	res      sendResult
}

// serveWL drives an in-process rlcd server over loopback with an open-loop,
// seeded-Poisson arrival schedule of mixed endpoints against a warmed hot key
// set plus fresh keys.
type serveWL struct {
	seed    int64
	srv     *serve.Server
	hs      *http.Server
	served  chan struct{} // closed when the HTTP server's Serve returns
	client  *http.Client
	base    string
	hot     [nKinds][]hotKey
	deckN   int64         // index of the cached request deck
	deck    [mixDeck]slot // its layout
	sizes   *deck         // deals fresh sweep sizes
	next    int64         // global request index
	windows uint64        // schedule stream of the next window

	last       []reqRecord // records of the last timed window
	traced     []reqRecord // records of the traced window
	queueFull0 int64       // admission rejects before the traced window
	queueFullN int64       // and after it
}

func (w *serveWL) tail() float64 { return 99 }

// initMix lays out the request deck and draws the hot key set. The hot key
// set is the same for every seed, so set-up cost does not vary with it; the
// seed deals the schedule, the slot order, which hot key each hit asks for,
// and every fresh key.
func (w *serveWL) initMix(seed int64) {
	w.seed = seed
	w.deckN = -1
	w.sizes = newDeck(seed, 10, len(sweepSizes))
	for k := range w.hot {
		w.hot[k] = make([]hotKey, hotCounts[k])
		for j := range w.hot[k] {
			w.hot[k][j].q = genQuery(k, rngFor(0, 8, uint64(k*1000+j)), sweepSizes[j%len(sweepSizes)])
			if k == kRC {
				w.hot[k][j].q = rcQ{serveTechs[j]}
			}
		}
	}
}

func (w *serveWL) setup(seed int64) error {
	w.initMix(seed)
	w.srv = serve.New(serve.Config{Logger: log.New(io.Discard, "", log.LstdFlags|log.Lmicroseconds)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	// Unencrypted HTTP/2 multiplexes requests over the generator's few
	// connections, so a slow miss does not hold a connection hostage and
	// latency measures the server, not the client's connection pool.
	var h2c http.Protocols
	h2c.SetUnencryptedHTTP2(true)
	srvProtos := h2c
	srvProtos.SetHTTP1(true)
	w.hs = &http.Server{Handler: w.srv.Handler(), Protocols: &srvProtos}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		_ = w.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	w.base = "http://" + ln.Addr().String()
	w.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: clientConns, DisableCompression: true, Protocols: &h2c},
		Timeout:   time.Minute,
	}
	// Warm the hot keys: each answer is checked against the facade once,
	// and every later hit must return the same bytes.
	for k := range w.hot {
		for j := range w.hot[k] {
			h := &w.hot[k][j]
			body, err := json.Marshal(h.q)
			if err != nil {
				return err
			}
			rec := w.send(context.Background(), request{kind: k, hot: -1, q: h.q, body: body})
			if rec.res.Err != nil {
				return fmt.Errorf("warm %s: %w", kindName[k], rec.res.Err)
			}
			if rec.proto != 2 {
				return fmt.Errorf("warm %s: answered over HTTP/%d, want HTTP/2", kindName[k], rec.proto)
			}
			if err := checkAnswer(h.q, rec.body); err != nil {
				return fmt.Errorf("warm %s: %w", kindName[k], err)
			}
			h.body = rec.body
		}
	}
	return nil
}

// slot is one position of a request deck.
type slot struct {
	kind  int
	fresh bool
	ord   int // index among the deck's fresh slots of this kind
}

// layout deals request deck d: mixCounts requests of each kind, of which one
// in freshEvery (rounded down; none of optimize-rc) carries a fresh key.
// The heavy fresh requests — cold sweeps and plan-power, each of which
// occupies both cores — sit evenly spaced across the deck and the light
// fresh ones evenly between, so every run sees the same spacing of misses;
// the seed orders the kinds within each group and shuffles the hits.
func layout(seed, d int64) [mixDeck]slot {
	rng := rngFor(seed, 5, uint64(d))
	var heavy, light, hot []int
	for k, n := range mixCounts {
		fresh := n / freshEvery
		if k == kRC {
			fresh = 0
		}
		for j := 0; j < n; j++ {
			switch {
			case j >= fresh:
				hot = append(hot, k)
			case k == kSweep || k == kPlanPower:
				heavy = append(heavy, k)
			default:
				light = append(light, k)
			}
		}
	}
	var out [mixDeck]slot
	var taken [mixDeck]bool
	var ord [nKinds]int
	put := func(p, k int, fresh bool) {
		for taken[p] {
			p = (p + 1) % mixDeck
		}
		taken[p] = true
		out[p] = slot{kind: k, fresh: fresh, ord: ord[k]}
		if fresh {
			ord[k]++
		}
	}
	for _, group := range [][]int{heavy, light, hot} {
		rng.Shuffle(len(group), func(i, j int) { group[i], group[j] = group[j], group[i] })
	}
	for j, k := range heavy {
		put(j*mixDeck/len(heavy), k, true)
	}
	for j, k := range light {
		put((2*j+1)*mixDeck/(2*len(light)), k, true)
	}
	for _, k := range hot {
		put(0, k, false)
	}
	return out
}

// request builds global request g.
func (w *serveWL) request(g int64) request {
	if d := g / mixDeck; d != w.deckN {
		w.deck, w.deckN = layout(w.seed, d), d
	}
	s := w.deck[g%mixDeck]
	k := s.kind
	rng := rngFor(w.seed, 7, uint64(g))
	if s.fresh {
		// The fresh sweep's ordinal across decks picks its size.
		nth := g/mixDeck*int64(mixCounts[kSweep]/freshEvery) + int64(s.ord)
		q := genQuery(k, rng, sweepSizes[w.sizes.at(nth)])
		body, _ := json.Marshal(q) // plain structs of finite floats
		return request{kind: k, hot: -1, q: q, body: body}
	}
	h := rng.Intn(len(w.hot[k]))
	body, _ := json.Marshal(w.hot[k][h].q)
	return request{kind: k, hot: h, body: body}
}

// send posts one request and checks what can be checked on arrival: the
// status, the degraded flag, and for hot keys the exact verified bytes.
func (w *serveWL) send(ctx context.Context, r request) reqRecord {
	rec := reqRecord{kind: r.kind, hot: r.hot >= 0, q: r.q}
	fail := func(err error) reqRecord {
		rec.res.Err = fmt.Errorf("%s: %w", kindName[r.kind], err)
		return rec
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+kindPath[r.kind], bytes.NewReader(r.body))
	if err != nil {
		return fail(err)
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return fail(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fail(err)
	}
	rec.proto = resp.ProtoMajor
	rec.xcache = resp.Header.Get("X-Cache")
	rec.degraded = resp.Header.Get("X-Degraded") != ""
	switch {
	case resp.StatusCode/100 != 2:
		return fail(fmt.Errorf("status %d: %s", resp.StatusCode, truncate(body)))
	case rec.degraded:
		return fail(fmt.Errorf("degraded answer: %s", truncate(body)))
	case r.hot >= 0 && !bytes.Equal(body, w.hot[r.kind][r.hot].body):
		return fail(fmt.Errorf("hot key %d answered %s", r.hot, truncate(body)))
	}
	if r.hot < 0 {
		rec.body = body
	}
	return rec
}

// window runs one open-loop window at rate and returns the records.
func (w *serveWL) window(rate float64, d time.Duration, tr *tracer) []reqRecord {
	sched := poissonSchedule(rngFor(w.seed, 9, w.windows), rate, d)
	w.windows++
	first := w.next
	reqs := make([]request, len(sched))
	for i := range reqs {
		reqs[i] = w.request(first + int64(i))
	}
	w.next += int64(len(reqs))
	recs := make([]reqRecord, len(reqs))
	ctx, cancel := context.WithTimeout(context.Background(), d+time.Minute)
	defer cancel()
	start := time.Now().Add(10 * time.Millisecond)
	res := openLoop(ctx, start, sched, func(ctx context.Context, i int) error {
		root := tr.startAt("serve."+kindName[reqs[i].kind], nil, first+int64(i), start.Add(sched[i]))
		recs[i] = w.send(ctx, reqs[i])
		root.end()
		return recs[i].res.Err
	})
	recs = recs[:len(res)]
	for i := range recs {
		recs[i].res = res[i]
	}
	return recs
}

func (w *serveWL) run(d time.Duration, tr *tracer) runStats {
	if tr != nil {
		w.queueFull0 = w.queueFull()
	}
	recs := w.window(nominalRate, d, tr)
	if tr != nil {
		w.queueFullN = w.queueFull()
		w.traced = recs
	}
	w.last = recs
	st := runStats{elapsed: d, attempted: len(recs)}
	for _, r := range recs {
		st.lat = append(st.lat, ms(r.res.Latency()))
		if r.res.Err != nil {
			st.failed++
			logFailure(st.failed, r.res.Err)
		}
	}
	return st
}

// verify re-derives a sample of the last window's fresh-key responses
// through the facade and returns how many differ.
func (w *serveWL) verify() int {
	failed := 0
	var checked [nKinds]int
	for _, r := range w.last {
		if r.hot || r.res.Err != nil || checked[r.kind] >= freshCheckCap[r.kind] {
			continue
		}
		checked[r.kind]++
		if err := checkAnswer(r.q, r.body); err != nil {
			failed++
			logFailure(failed, fmt.Errorf("fresh %s: %w", kindName[r.kind], err))
		}
	}
	return failed
}

// queueFull reads the server's admission-reject counter from /metrics.
func (w *serveWL) queueFull() int64 {
	resp, err := w.client.Get(w.base + "/metrics")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	var m struct {
		Admission struct {
			QueueFull int64 `json:"queue_full"`
		} `json:"admission"`
	}
	if json.NewDecoder(resp.Body).Decode(&m) != nil {
		return 0
	}
	return m.Admission.QueueFull
}

func (w *serveWL) probe(tr *tracer, m metrics) error {
	recs := w.traced
	n := float64(len(recs))
	if n == 0 {
		return errors.New("no traced requests")
	}
	var hit, coalesced, degraded float64
	var hitLat, late []float64
	var missLat [nKinds][]float64
	for _, r := range recs {
		switch r.xcache {
		case "hit":
			hit++
			hitLat = append(hitLat, 1e3*ms(r.res.Latency()))
		case "coalesced":
			coalesced++
		}
		if r.degraded {
			degraded++
		}
		if !r.hot {
			missLat[r.kind] = append(missLat[r.kind], ms(r.res.Latency()))
		}
		late = append(late, ms(r.res.Late()))
	}
	m["serve.hit_ratio"] = hit / n
	m["serve.coalesced_ratio"] = coalesced / n
	m["serve.degraded_ratio"] = degraded / n
	m["serve.reject_ratio"] = float64(w.queueFullN-w.queueFull0) / n
	m["serve.hit_us"] = median(hitLat)
	for _, k := range []int{kOptimize, kDelay, kPlan, kSweep, kPlanPower} {
		m["serve.miss_ms."+kindName[k]] = median(missLat[k])
	}
	m["loadgen.late_ms"] = percentile(late, 99)

	// Optimizer layers on the mix's optimize keys, per node in l order.
	var cp coreProbe
	byTech := map[string][]float64{}
	for _, h := range w.hot[kOptimize] {
		q := h.q.(optimizeQ)
		byTech[q.Tech] = append(byTech[q.Tech], q.L)
	}
	for _, tn := range serveTechs {
		ls := byTech[tn]
		sort.Float64s(ls)
		t, err := rlcint.TechByName(tn)
		if err != nil {
			return err
		}
		if err := cp.run(tr, -1, t, ls); err != nil {
			return err
		}
	}
	cp.report(tr, m)

	// Power layers on the mix's plan-power keys.
	for _, h := range w.hot[kPlanPower] {
		q := h.q.(planPowerQ)
		t, err := rlcint.TechByName(q.Tech)
		if err != nil {
			return err
		}
		prm := rlcint.PowerParams{Alpha: q.Alpha, Freq: q.Freq}
		sp := tr.start("power.PlanPower", nil, -1)
		_, err = rlcint.PlanPowerCtx(context.Background(), t, q.L, q.F, q.Length, prm,
			rlcint.PowerPlanOptions{MaxPenalty: q.MaxPenalty})
		sp.end()
		if err != nil {
			return err
		}
		pm, err := rlcint.NewPowerModel(t, q.L, prm)
		if err != nil {
			return err
		}
		sp = tr.start("power.ParetoFront", nil, -1)
		_, err = rlcint.ParetoFront(context.Background(), pm, q.F, rlcint.ParetoOptions{})
		sp.end()
		if err != nil {
			return err
		}
	}
	sum := tr.summary()
	m["power.plan_ms"] = sum["power.PlanPower"].MeanMS()
	m["power.front_ms"] = sum["power.ParetoFront"].MeanMS()
	m["serve.slo_rate_rps"] = w.sloRate()
	return nil
}

// sloRate finds the highest arrival rate whose p99 latency meets sloLimit
// without a growing backlog: a ×1.5 ladder up from the nominal rate, then
// four geometric bisection steps (a final bracket within 2.6%).
func (w *serveWL) sloRate() float64 {
	lo, hi := 0.0, nominalRate
	for w.meetsSLO(hi) && hi < 32*nominalRate {
		lo, hi = hi, hi*1.5
	}
	if lo == 0 {
		lo = hi / 8
		if !w.meetsSLO(lo) {
			return 0
		}
	}
	for k := 0; k < 4; k++ {
		mid := math.Sqrt(lo * hi)
		if w.meetsSLO(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// meetsSLO runs one step at rate: every request must succeed, p99 latency
// must meet sloLimit, and the last quarter's median latency must not exceed
// twice the first quarter's (plus 1 ms) — a backlog that grows through the
// step.
func (w *serveWL) meetsSLO(rate float64) bool {
	recs := w.window(rate, sloStep, nil)
	if len(recs) < 4 {
		return false
	}
	lat := make([]float64, len(recs))
	for i, r := range recs {
		if r.res.Err != nil {
			return false
		}
		lat[i] = ms(r.res.Latency())
	}
	q := len(lat) / 4
	first, last := median(lat[:q]), median(lat[len(lat)-q:])
	ok := percentile(append([]float64(nil), lat...), 99) <= ms(sloLimit) && last <= 2*first+1
	fmt.Fprintf(os.Stderr, "perfbench: slo step %.0f req/s: p99 %.1f ms, first/last-quarter median %.2f/%.2f ms, meets=%v\n",
		rate, percentile(lat, 99), first, last, ok)
	return ok
}

func (w *serveWL) close() {
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	if w.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = w.hs.Shutdown(ctx) // a stuck drain is cut by srv.Close below
		cancel()
		<-w.served
	}
	if w.srv != nil {
		w.srv.Close()
	}
}
