// The router serves the same /v1 surface as a single hpas-serve
// instance, so the client must work against it unchanged. This test
// lives in the external package because the shard router itself links
// hpasclient for its HTTP backend.
package hpasclient_test

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"hpas"
	"hpas/api"
	hpasclient "hpas/client"
	"hpas/internal/shard"
	"hpas/serve"
)

var (
	routerDetOnce sync.Once
	routerDet     *hpas.Detector
	routerDetErr  error
)

func routerDetector(t *testing.T) *hpas.Detector {
	t.Helper()
	routerDetOnce.Do(func() {
		ds, err := hpas.GenerateDataset(hpas.DatasetConfig{
			Apps:    []string{"CoMD"},
			Classes: []string{"none", "cpuoccupy"},
			Reps:    3,
			Window:  12,
			Warmup:  2,
			Seed:    31,
		})
		if err != nil {
			routerDetErr = err
			return
		}
		routerDet, routerDetErr = hpas.TrainDetector(ds, 10, 31)
	})
	if routerDetErr != nil {
		t.Fatalf("training test detector: %v", routerDetErr)
	}
	return routerDet
}

// jobReq is a minimal valid request: seeded, short, default app.
func jobReq(seed uint64, duration float64) api.JobRequest {
	return api.JobRequest{Seed: seed, Duration: duration, Window: 10}
}

// TestClientAgainstRouter drives the full client verb set through a
// router over two in-process shards: routed submit, keyed replay, get,
// merged list, stream-to-done, and cancel must all behave exactly as
// they do against one server.
func TestClientAgainstRouter(t *testing.T) {
	det := routerDetector(t)
	var members []shard.Member
	for _, name := range []string{"shard0", "shard1"} {
		mgr := hpas.NewStreamManager(hpas.StreamConfig{Workers: 2, Queue: 16})
		defer mgr.Close()
		members = append(members, shard.Member{
			Name:    name,
			Backend: shard.NewLocal(mgr, serve.New(mgr, det, serve.Config{})),
		})
	}
	rt, err := shard.NewRouter(members, shard.Config{
		CheckInterval: 100 * time.Millisecond,
		FailAfter:     2,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	c := hpasclient.New(ts.URL, hpasclient.Options{
		BaseDelay: time.Millisecond,
		MaxDelay:  10 * time.Millisecond,
		Seed:      7,
	})

	// Submit a short job and stream it to completion: every message in
	// order, terminated by the done frame.
	st, err := c.Submit(ctx, jobReq(3, 30))
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Stream != "/v1/jobs/"+st.ID+"/stream" {
		t.Fatalf("submitted job = %+v, want a routed ID with a matching stream path", st)
	}
	var msgs []hpas.StreamMessage
	if err := c.Stream(ctx, st.ID, 0, func(m hpas.StreamMessage) error {
		msgs = append(msgs, m)
		return nil
	}); err != nil {
		t.Fatalf("stream through router: %v", err)
	}
	for i, m := range msgs {
		if m.Seq != i {
			t.Fatalf("message %d has seq %d; routed streams must be contiguous", i, m.Seq)
		}
	}
	if last := msgs[len(msgs)-1]; last.Type != "done" || last.State != hpas.StreamJobDone {
		t.Fatalf("stream ended with %+v, want a done frame", last)
	}

	got, err := c.Get(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != "done" {
		t.Fatalf("get after stream = %+v, want done", got)
	}

	// Keyed submits replay through the router, not just at one shard.
	first, replayed, err := c.SubmitKeyed(ctx, jobReq(4, 30), "router-key-1")
	if err != nil {
		t.Fatal(err)
	}
	if replayed {
		t.Fatal("fresh keyed submit reported as replay")
	}
	again, replayed, err := c.SubmitKeyed(ctx, jobReq(4, 30), "router-key-1")
	if err != nil {
		t.Fatal(err)
	}
	if !replayed || again.ID != first.ID {
		t.Fatalf("replay = (%+v, %v), want the original job %s back", again, replayed, first.ID)
	}

	// Cancel an endless job; the client sees the terminal state.
	run, err := c.Submit(ctx, jobReq(5, 800000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cancel(ctx, run.ID); err != nil {
		t.Fatal(err)
	}
	for {
		cst, err := c.Get(ctx, run.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cst.Final() {
			if cst.State != "cancelled" {
				t.Fatalf("cancelled job ended %s, want cancelled", cst.State)
			}
			break
		}
		select {
		case <-ctx.Done():
			t.Fatal("cancel never became final")
		case <-time.After(20 * time.Millisecond):
		}
	}

	// The merged listing covers jobs from both shards in a stable order.
	l1, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(l1) != 3 {
		t.Fatalf("listing holds %d jobs, want 3", len(l1))
	}
	l2, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := range l1 {
		if l1[i].ID != l2[i].ID {
			t.Fatalf("listing order flapped at %d: %s vs %s", i, l1[i].ID, l2[i].ID)
		}
	}

	if hpasclient.IsNotFound(func() error { _, err := c.Get(ctx, "g99999"); return err }()) == false {
		t.Fatal("unknown routed job did not surface as not-found")
	}
}
