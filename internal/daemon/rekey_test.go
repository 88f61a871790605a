package daemon

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"jointadmin/internal/obs"
)

// TestConcurrentDynamicsThroughHandle races two joins, then two leaves,
// through Handle while a reader keeps reading: every command succeeds,
// the key epoch advances once per change, the AA key is shared among
// exactly the members after each pair, and every read is approved.
func TestConcurrentDynamicsThroughHandle(t *testing.T) {
	reg := obs.NewRegistry()
	d, err := New(Config{
		Domains:        []string{"D1", "D2", "D3"},
		Users:          []string{"alice", "bob", "carol"},
		WriteThreshold: 2,
		Metrics:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	stop := make(chan struct{})
	var reads, refused atomic.Int64
	var readerDone sync.WaitGroup
	readerDone.Add(1)
	go func() {
		defer readerDone.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if r := d.Handle(ctx, Command{Cmd: "read", Signers: []string{"carol"}}); !r.OK {
				refused.Add(1)
				t.Errorf("read: %+v", r)
			}
			reads.Add(1)
		}
	}()
	epoch := d.alliance.Coalition().Epoch()
	for _, verb := range []string{"join", "leave"} {
		var wg sync.WaitGroup
		for _, domain := range []string{"D4", "D5"} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if r := d.Handle(ctx, Command{Cmd: verb, Domain: domain}); !r.OK {
					t.Errorf("%s %s: %+v", verb, domain, r)
				}
			}()
		}
		wg.Wait()
		// Whichever of the pair committed second, the AA key is shared
		// among exactly the members.
		var sharers []string
		for _, da := range d.alliance.Coalition().AA().Domains() {
			sharers = append(sharers, da.Name)
		}
		if members := d.alliance.Domains(); !slices.Equal(sharers, members) {
			t.Errorf("after the %ss: AA key shared among %v, members %v", verb, sharers, members)
		}
	}
	d.Handle(ctx, Command{Cmd: "read", Signers: []string{"carol"}}) // at least one read after the last change
	close(stop)
	readerDone.Wait()

	if got := d.alliance.Coalition().Epoch(); got != epoch+4 {
		t.Errorf("key epoch %d after four changes from %d, want %d", got, epoch, epoch+4)
	}
	if got := d.alliance.Domains(); !slices.Equal(got, []string{"D1", "D2", "D3"}) {
		t.Errorf("domains after the joins and leaves: %v", got)
	}
	if reads.Load() == 0 || refused.Load() != 0 {
		t.Errorf("%d reads, %d refused", reads.Load(), refused.Load())
	}
	snap := reg.Snapshot()
	for _, phase := range []string{"keygen", "cutover"} {
		if h, ok := snap.HistogramValueOf(`daemon_rekey_seconds{phase="` + phase + `"}`); !ok || h.Count != 4 {
			t.Errorf("daemon_rekey_seconds{phase=%q} = %+v (found %v), want 4 observations", phase, h, ok)
		}
	}
}
