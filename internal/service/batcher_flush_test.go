package service

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adtd"
)

// flushWindow is far longer than any flush the rule triggers, so a test can
// tell "flushed because no one else could join" from "waited out the window".
const flushWindow = time.Second

// stubBatcher returns a batcher whose forwards answer instantly and count
// themselves, so the flush-rule tests need no model.
func stubBatcher(t *testing.T, window time.Duration) (*Batcher, *atomic.Int64) {
	t.Helper()
	b := NewBatcher(window, 64)
	var forwards atomic.Int64
	b.forward = func(_ *adtd.Model, reqs []adtd.ContentRequest, _ int) [][][]float64 {
		forwards.Add(1)
		return make([][][]float64, len(reqs))
	}
	t.Cleanup(b.Stop)
	return b, &forwards
}

// submitAsync submits one chunk on ctx and reports when it is answered.
func submitAsync(t *testing.T, b *Batcher, ctx context.Context) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := b.InferContentBatch(ctx, nil, make([]adtd.ContentRequest, 1), 4)
		done <- err
	}()
	return done
}

// awaitSubmissions waits until the batcher has queued n submissions.
func awaitSubmissions(t *testing.T, b *Batcher, n int) {
	t.Helper()
	for deadline := time.Now().Add(flushWindow / 2); b.Stats().Submissions < n; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d submissions queued", b.Stats().Submissions, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// answered waits for a submission's answer, failing if it takes longer than
// a small fraction of the window.
func answered(t *testing.T, done <-chan error, what string) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(flushWindow / 4):
		t.Fatalf("%s: not answered within %v of a %v window", what, flushWindow/4, flushWindow)
	}
}

// TestBatcherLoneRequestSkipsWindow: with one registered request in flight,
// its submission cannot gain company, so it flushes at once.
func TestBatcherLoneRequestSkipsWindow(t *testing.T) {
	b, forwards := stubBatcher(t, flushWindow)
	ctx, release := b.Register(context.Background())
	defer release()
	answered(t, submitAsync(t, b, ctx), "lone request")
	if st := b.Stats(); st.QueueDelay >= flushWindow/10 {
		t.Fatalf("queue delay %v, want ≪ %v window", st.QueueDelay, flushWindow)
	}
	if got := forwards.Load(); got != 1 {
		t.Fatalf("forwards = %d, want 1", got)
	}
}

// TestBatcherRegisteredRequestsCoalesce: a submission waits while another
// registered request may still join, and the two overlapping submissions
// share one forward as soon as the second arrives.
func TestBatcherRegisteredRequestsCoalesce(t *testing.T) {
	b, forwards := stubBatcher(t, flushWindow)
	ctxA, releaseA := b.Register(context.Background())
	defer releaseA()
	ctxB, releaseB := b.Register(context.Background())
	defer releaseB()

	doneA := submitAsync(t, b, ctxA)
	awaitSubmissions(t, b, 1)
	select {
	case <-doneA:
		t.Fatal("first submission flushed while the other registered request could still join")
	case <-time.After(20 * time.Millisecond):
	}
	doneB := submitAsync(t, b, ctxB)
	answered(t, doneA, "request A")
	answered(t, doneB, "request B")
	st := b.Stats()
	if got := forwards.Load(); got != 1 || st.Batches != 1 || st.CoalescedBatches != 1 {
		t.Fatalf("forwards = %d, batches = %d, coalesced = %d: want one shared forward",
			got, st.Batches, st.CoalescedBatches)
	}
}

// TestBatcherUnregisteredWaitsWindow: a batcher nobody registers with (a
// hand-wired content inferencer) keeps the plain window behaviour.
func TestBatcherUnregisteredWaitsWindow(t *testing.T) {
	const window = 100 * time.Millisecond
	b, _ := stubBatcher(t, window)
	start := time.Now()
	if _, err := b.InferContentBatch(context.Background(), nil, make([]adtd.ContentRequest, 1), 4); err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited < window {
		t.Fatalf("unregistered submission answered after %v, want ≥ the %v window", waited, window)
	}
	if st := b.Stats(); st.QueueDelay < window {
		t.Fatalf("queue delay %v, want ≥ the %v window", st.QueueDelay, window)
	}
}

// TestBatcherReleaseWithoutSubmitFlushes: a registered request that
// finishes without submitting must not strand the others until the window.
func TestBatcherReleaseWithoutSubmitFlushes(t *testing.T) {
	b, _ := stubBatcher(t, flushWindow)
	ctxA, releaseA := b.Register(context.Background())
	defer releaseA()
	_, releaseB := b.Register(context.Background())

	doneA := submitAsync(t, b, ctxA)
	awaitSubmissions(t, b, 1)
	releaseB()
	releaseB() // idempotent: a second release must not unbalance the count
	answered(t, doneA, "request A after B released")
}

// TestBatcherStopLeavesNoGoroutines: after Stop, neither the collector nor
// any forward goroutine is left running.
func TestBatcherStopLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	b := NewBatcher(flushWindow, 64)
	b.forward = func(_ *adtd.Model, reqs []adtd.ContentRequest, _ int) [][][]float64 {
		return make([][][]float64, len(reqs))
	}
	ctx, release := b.Register(context.Background())
	_, idle := b.Register(context.Background())
	done := submitAsync(t, b, ctx) // queued: the idle request could still join
	awaitSubmissions(t, b, 1)
	b.Stop() // flushes the queue and waits for its forward
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	release()
	idle()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after Stop", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}
