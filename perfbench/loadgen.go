package main

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// poissonSchedule returns the send offsets of a Poisson arrival process at
// rate requests per second over window, drawn from rng.
func poissonSchedule(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= window {
			return out
		}
		out = append(out, d)
	}
}

// sendResult times one open-loop request.
type sendResult struct {
	Due  time.Time // when the schedule said to send
	Sent time.Time // when the generator actually handed it to send
	Done time.Time // when send returned (after the last response byte)
	Err  error
}

// Latency is measured from the due time, so a stall that delays later
// sends is charged to every request it delays.
func (r sendResult) Latency() time.Duration { return r.Done.Sub(r.Due) }

// Late is how far the generator ran behind the schedule for this request.
func (r sendResult) Late() time.Duration { return r.Sent.Sub(r.Due) }

// maxOutstanding bounds the requests the generator keeps in flight; beyond
// it the generator itself falls behind, which Late reports.
const maxOutstanding = 1024

// openLoop sends request i at start+sched[i] whether or not earlier requests
// have finished, each on its own goroutine, and returns once every request
// has returned. Requests not yet sent when ctx ends are not sent and are
// omitted from the results.
func openLoop(ctx context.Context, start time.Time, sched []time.Duration, send func(ctx context.Context, i int) error) []sendResult {
	res := make([]sendResult, len(sched))
	sem := make(chan struct{}, maxOutstanding)
	var wg sync.WaitGroup
	n := 0
	for i, off := range sched {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
		}
		if ctx.Err() != nil {
			break
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
		res[i].Due, res[i].Sent = due, time.Now()
		n = i + 1
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			res[i].Err = send(ctx, i)
			res[i].Done = time.Now()
		}(i)
	}
	wg.Wait()
	return res[:n]
}
