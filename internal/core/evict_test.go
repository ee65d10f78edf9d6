package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"ftpcloud/internal/obs"
	"ftpcloud/internal/worldgen"
)

// retainedHeap returns the live heap after two collections: the second
// clears the sync.Pool victims the first one left.
func retainedHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// maxRetainedPerHost bounds the heap a finished census at scale 4096 keeps
// per contacted host while its world is held. A world that keeps every host
// it built retains about 1.4 KB each (server, vfs tree, listing cache); one
// that evicts clean hosts keeps only the connection-independent state.
const maxRetainedPerHost = 160

// TestCensusEvictsHosts sweeps the census over world scales — at four times
// the default workers too, so more connections pin and release hosts on the
// world at once, and once through the identification stage — holding the
// world and dropping the result. A
// benign census writes nothing, so no host may stay resident; each host is
// built at most once per control dial; and the heap the world retains per
// contacted host stays small.
func TestCensusEvictsHosts(t *testing.T) {
	type point struct {
		scale, workers int
		identify       bool
	}
	points := []point{{65536, 1, false}, {16384, 4, false}, {16384, 1, true}, {4096, 4, false}}
	if !testing.Short() {
		points = append(points, point{2048, 4, false})
	}
	for _, p := range points {
		t.Run(fmt.Sprintf("scale=%d/workers=%dx/identify=%v", p.scale, p.workers, p.identify), func(t *testing.T) {
			reg := obs.NewRegistry()
			cfg := withWorkers(CensusConfig{Seed: 42, Scale: p.scale, Metrics: reg}, p.workers)
			if p.identify {
				cfg.Identify = true
				cfg.ServiceMix = worldgen.DefaultServiceMix()
				cfg.IdentifyWait = 200 * time.Millisecond
			}
			c, err := NewCensus(cfg)
			if err != nil {
				t.Fatal(err)
			}
			before := retainedHeap()
			res, err := c.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			observed, responded, retries := res.Observed, res.Responded, uint64(res.Robustness.Retries)
			res = nil
			perHost := float64(retainedHeap()-before) / float64(observed)
			world := c.World

			if n := reg.Gauge("world.resident").Load(); n != 0 {
				t.Errorf("world.resident=%d after the census, want 0", n)
			}
			if n := world.MaterializedHosts(); n != 0 {
				t.Errorf("%d hosts resident after the census, want 0", n)
			}
			built, evicted := reg.Counter("world.materialized").Load(), reg.Counter("world.evicted").Load()
			if built != evicted {
				t.Errorf("world.materialized=%d, world.evicted=%d; want equal", built, evicted)
			}
			// One build per control dial: the enumerator dials each
			// record's host once plus its redials, and identification
			// dials every responsive address once before that.
			limit := uint64(observed) + retries
			if p.identify {
				limit += responded
			}
			if built < uint64(observed) || built > limit {
				t.Errorf("built %d hosts for %d records (%d redials, %d responsive); want %d..%d",
					built, observed, retries, responded, observed, limit)
			}
			t.Logf("%d records, %d builds (%.2f per record), %.0f B retained per record",
				observed, built, float64(built)/float64(observed), perHost)
			if p.scale == 4096 && perHost > maxRetainedPerHost {
				t.Errorf("world retains %.0f B per contacted host, want <= %d", perHost, maxRetainedPerHost)
			}
			runtime.KeepAlive(world)
		})
	}
}
