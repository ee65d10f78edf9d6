// Benchmark harness: one benchmark per table and figure in the paper's
// evaluation, plus ablations for the design decisions DESIGN.md calls out.
//
// Each table benchmark runs over a shared census fixture (a full
// scan + enumerate at FTPCLOUD_BENCH_SCALE, default 1:8192, folded into the
// streaming accumulators) and prints its table once, so `go test -bench .`
// regenerates the paper's rows while measuring that table's finalize cost.
// BenchmarkPipeline_FullCensus times the entire pipeline end to end.
package ftpcloud

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"ftpcloud/internal/analysis"
	"ftpcloud/internal/attacker"
	"ftpcloud/internal/core"
	"ftpcloud/internal/dataset"
	"ftpcloud/internal/enumerator"
	"ftpcloud/internal/fingerprint"
	"ftpcloud/internal/ftp"
	"ftpcloud/internal/ftpserver"
	"ftpcloud/internal/honeypot"
	"ftpcloud/internal/identify"
	"ftpcloud/internal/personality"
	"ftpcloud/internal/report"
	"ftpcloud/internal/simnet"
	"ftpcloud/internal/vfs"
	"ftpcloud/internal/worldgen"
	"ftpcloud/internal/zmap"
)

// benchScale returns the fixture scale (1:N of the paper's Internet).
func benchScale() int {
	if s := os.Getenv("FTPCLOUD_BENCH_SCALE"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n >= 1 {
			return n
		}
	}
	return 8192
}

var (
	fixtureOnce    sync.Once
	fixtureResult  *core.Result
	fixtureAgg     *analysis.Aggregator
	fixtureScanned uint64
	fixtureErr     error
)

// fixture runs the shared streaming census once per process. It returns
// the result, an aggregator restored from the run's snapshot — so each
// table benchmark can time its own finalize — and the sweep size.
func fixture(b *testing.B) (*core.Result, *analysis.Aggregator, uint64) {
	b.Helper()
	fixtureOnce.Do(func() {
		census, err := core.NewCensus(core.CensusConfig{
			Seed:  42,
			Scale: benchScale(),
		})
		if err != nil {
			fixtureErr = err
			return
		}
		if fixtureResult, fixtureErr = census.Run(context.Background()); fixtureErr != nil {
			return
		}
		fixtureAgg = analysis.NewAggregator(nil, nil)
		fixtureAgg.MergeSnapshot(fixtureResult.Snapshot())
		fixtureScanned = census.World.ScanSize
	})
	if fixtureErr != nil {
		b.Fatal(fixtureErr)
	}
	return fixtureResult, fixtureAgg, fixtureScanned
}

// printOnce emits a table exactly once across all bench iterations.
var printedTables sync.Map

func printTable(name, body string) {
	if _, loaded := printedTables.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n%s\n", body)
	}
}

// BenchmarkTableI_ScanFunnel regenerates Table I.
func BenchmarkTableI_ScanFunnel(b *testing.B) {
	_, agg, scanned := fixture(b)
	var f analysis.Funnel
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = agg.Funnel(scanned)
	}
	b.ReportMetric(float64(f.FTPServers), "ftp-servers")
	b.ReportMetric(f.PctAnonymous, "pct-anon")
	printTable("table1", report.Funnel(f))
}

// BenchmarkTableII_Classification regenerates Table II.
func BenchmarkTableII_Classification(b *testing.B) {
	_, agg, _ := fixture(b)
	var c analysis.Classification
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c = agg.Classification()
	}
	b.ReportMetric(float64(c.TotalFTP), "classified")
	printTable("table2", report.Classification(c))
}

// BenchmarkTableIII_ASConcentration regenerates Table III.
func BenchmarkTableIII_ASConcentration(b *testing.B) {
	_, agg, _ := fixture(b)
	var a analysis.ASConcentration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a = agg.ASConcentration()
	}
	b.ReportMetric(float64(a.ASesForHalfAll), "ases-for-half")
	printTable("table3", report.ASConcentration(a))
}

// BenchmarkTableV_ProviderDevices regenerates Tables IV and V.
func BenchmarkTableV_ProviderDevices(b *testing.B) {
	_, agg, _ := fixture(b)
	var d analysis.DeviceBreakdown
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d = agg.Devices()
	}
	b.ReportMetric(float64(len(d.Provider)), "provider-models")
	printTable("table45_7", report.Devices(d))
}

// BenchmarkTableVI_TopASes regenerates Table VI.
func BenchmarkTableVI_TopASes(b *testing.B) {
	_, agg, _ := fixture(b)
	var rows []analysis.TopAS
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = agg.TopASes(10)
	}
	if len(rows) > 0 {
		b.ReportMetric(float64(rows[0].AnonServers), "top-as-anon")
	}
	printTable("table6", report.TopASes(rows))
}

// BenchmarkTableVII_ConsumerDevices regenerates Table VII (shares the
// device computation but reports the consumer side).
func BenchmarkTableVII_ConsumerDevices(b *testing.B) {
	_, agg, _ := fixture(b)
	var d analysis.DeviceBreakdown
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d = agg.Devices()
	}
	b.ReportMetric(float64(len(d.Consumer)), "consumer-models")
}

// BenchmarkTableVIII_Extensions regenerates Table VIII.
func BenchmarkTableVIII_Extensions(b *testing.B) {
	_, agg, _ := fixture(b)
	var e analysis.Exposure
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e = agg.Exposure()
	}
	b.ReportMetric(float64(len(e.Extensions)), "extensions")
	printTable("table8", report.Extensions(e, 10))
}

// BenchmarkTableIX_Sensitive regenerates Table IX.
func BenchmarkTableIX_Sensitive(b *testing.B) {
	_, agg, _ := fixture(b)
	var e analysis.Exposure
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e = agg.Exposure()
	}
	sensServers := 0
	for _, s := range e.Sensitive {
		sensServers += s.Servers
	}
	b.ReportMetric(float64(sensServers), "sensitive-server-rows")
	printTable("table9", report.Sensitive(e))
	printTable("section5", report.ExposureProse(e))
}

// BenchmarkTableX_ExposureByDevice regenerates Table X.
func BenchmarkTableX_ExposureByDevice(b *testing.B) {
	_, agg, _ := fixture(b)
	var x analysis.ExposureByDevice
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = agg.ExposureByDevice()
	}
	b.ReportMetric(float64(x.Totals["All"]), "exposing-servers")
	printTable("table10", report.ExposureByDevice(x))
}

// BenchmarkTableXI_CVEs regenerates Table XI.
func BenchmarkTableXI_CVEs(b *testing.B) {
	_, agg, _ := fixture(b)
	var c analysis.CVEExposure
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c = agg.CVEs()
	}
	b.ReportMetric(float64(c.VulnerableIPs), "vulnerable-ips")
	printTable("table11", report.CVEs(c))
}

// BenchmarkTableXII_FTPSCerts regenerates Tables XII and XIII plus §IX.
func BenchmarkTableXII_FTPSCerts(b *testing.B) {
	_, agg, _ := fixture(b)
	var f analysis.FTPS
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = agg.FTPS(10)
	}
	b.ReportMetric(float64(f.UniqueCerts), "unique-certs")
	b.ReportMetric(f.PctSelfSigned, "pct-self-signed")
	printTable("table12_13", report.FTPS(f))
}

// BenchmarkTableXIII_SharedCerts isolates the Table XIII device-cert
// grouping on the same computation.
func BenchmarkTableXIII_SharedCerts(b *testing.B) {
	_, agg, _ := fixture(b)
	var f analysis.FTPS
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f = agg.FTPS(10)
	}
	b.ReportMetric(float64(len(f.DeviceCerts)), "device-cert-families")
}

// BenchmarkFigure1_ASCDF regenerates Figure 1.
func BenchmarkFigure1_ASCDF(b *testing.B) {
	_, agg, _ := fixture(b)
	var a analysis.ASConcentration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a = agg.ASConcentration()
	}
	b.ReportMetric(float64(len(a.CDFAll)), "ases")
	printTable("figure1", report.Figure1(a))
}

// BenchmarkSectionVI_Malicious regenerates §VI.
func BenchmarkSectionVI_Malicious(b *testing.B) {
	_, agg, _ := fixture(b)
	var m analysis.Malicious
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m = agg.Malicious()
	}
	b.ReportMetric(float64(m.WritableServers), "writable-servers")
	printTable("section6", report.Malicious(m))
}

// BenchmarkSectionVII_PortBounce regenerates §VII.B.
func BenchmarkSectionVII_PortBounce(b *testing.B) {
	_, agg, _ := fixture(b)
	var p analysis.PortBounce
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p = agg.PortBounce()
	}
	b.ReportMetric(p.PctNotValidated, "pct-unvalidated")
	b.ReportMetric(p.HomePLShare, "homepl-share")
	printTable("section7b", report.PortBounce(p))
}

// BenchmarkSectionVIII_Honeypot runs the §VIII study end to end per
// iteration (smaller fleet than the paper's for bench throughput).
func BenchmarkSectionVIII_Honeypot(b *testing.B) {
	var r honeypot.Report
	for i := 0; i < b.N; i++ {
		var err error
		r, err = core.HoneypotStudy(context.Background(), core.HoneypotStudyConfig{
			Seed: uint64(i + 1), Honeypots: 8, Attackers: 120, Concentrated: 0.30,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.Summary.UniqueScanners), "scanners")
	b.ReportMetric(float64(r.Summary.SpokeFTP), "spoke-ftp")
	printTable("section8", report.Honeypot(r))
}

// BenchmarkPipeline_FullCensus times the complete scan→enumerate pipeline.
func BenchmarkPipeline_FullCensus(b *testing.B) {
	scale := benchScale() * 8 // keep per-iteration cost modest
	for i := 0; i < b.N; i++ {
		census, err := core.NewCensus(core.CensusConfig{Seed: uint64(i + 1), Scale: scale})
		if err != nil {
			b.Fatal(err)
		}
		res, err := census.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Observed), "hosts")
	}
}

// BenchmarkShardedCensus sweeps the shard fan-out over one fixed workload.
// Realistic latency makes enumeration dial-latency-bound (as a real census
// is), so the speedup comes from shards overlapping their hosts' round
// trips — the scaling the paper's multi-machine deployment relied on.
// workers-1 is the single-pipeline baseline (ShardedCensus degrades to
// Census.Run); near-linear scaling to workers-4 is the acceptance bar.
func BenchmarkShardedCensus(b *testing.B) {
	scale := benchScale() * 8
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sharded, err := core.NewShardedCensus(core.CensusConfig{
					Seed:             42,
					Scale:            scale,
					ScanWorkers:      32,
					EnumWorkers:      8,
					RealisticLatency: true,
				}, workers)
				if err != nil {
					b.Fatal(err)
				}
				res, err := sharded.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if res.Observed == 0 {
					b.Fatal("census observed no hosts")
				}
				b.ReportMetric(float64(res.Observed), "hosts")
			}
		})
	}
}

// --- Ablations ------------------------------------------------------------

// BenchmarkAblationLazyWorld compares lazy per-IP truth derivation against
// eager materialization of every host in the world.
func BenchmarkAblationLazyWorld(b *testing.B) {
	params := worldgen.DefaultParams(7, benchScale()*8)
	b.Run("lazy-truth-sweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w, err := worldgen.New(params)
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			for off := uint64(0); off < w.ScanSize; off++ {
				if _, ok := w.Truth(simnet.IP(uint64(w.ScanBase) + off)); ok {
					n++
				}
			}
			b.ReportMetric(float64(n), "hosts")
		}
	})
	b.Run("eager-materialize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w, err := worldgen.New(params)
			if err != nil {
				b.Fatal(err)
			}
			for off := uint64(0); off < w.ScanSize; off++ {
				w.Lookup(simnet.IP(uint64(w.ScanBase) + off))
			}
			b.ReportMetric(float64(w.MaterializedHosts()), "hosts")
		}
	})
}

// BenchmarkAblationPermutation compares the ZMap cyclic-group permutation
// against a linear sweep for the probe loop.
func BenchmarkAblationPermutation(b *testing.B) {
	const space = 1 << 20
	b.Run("cyclic-group", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			perm, err := zmap.NewPermutation(space, 42)
			if err != nil {
				b.Fatal(err)
			}
			var sum uint64
			for {
				v, ok := perm.Next()
				if !ok {
					break
				}
				sum += v
			}
			if sum != space*(space-1)/2 {
				b.Fatal("permutation incomplete")
			}
		}
	})
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var sum uint64
			for v := uint64(0); v < space; v++ {
				sum += v
			}
			if sum != space*(space-1)/2 {
				b.Fatal("sweep incomplete")
			}
		}
	})
}

// BenchmarkAblationPipe compares the buffered simnet pipe against the
// stdlib's unbuffered net.Pipe for a bulk transfer (1 MiB) and for one
// listing-sized data connection (36 KiB, a ~512-entry LIST), each over a
// fresh connection pair.
func BenchmarkAblationPipe(b *testing.B) {
	buf := make([]byte, 32<<10)
	chunk := make([]byte, 32<<10) // only ever read by the writers
	run := func(b *testing.B, payload int, mk func() (net.Conn, net.Conn)) {
		b.SetBytes(int64(payload))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cw, cr := mk()
			go func() {
				total := 0
				for total < payload {
					n, err := cw.Write(chunk[:min(len(chunk), payload-total)])
					total += n
					if err != nil {
						return
					}
				}
				cw.Close()
			}()
			total := 0
			for total < payload {
				n, err := cr.Read(buf)
				total += n
				if err != nil {
					break
				}
			}
			cr.Close()
		}
	}
	for _, size := range []struct {
		name  string
		bytes int
	}{{"1MiB", 1 << 20}, {"36KiB", 36 << 10}} {
		b.Run("simnet-buffered/"+size.name, func(b *testing.B) {
			run(b, size.bytes, func() (net.Conn, net.Conn) {
				a, c := simnet.NewConnPair(simnet.Addr{IP: 1, Port: 1}, simnet.Addr{IP: 2, Port: 2})
				return a, c
			})
		})
		b.Run("net-pipe-unbuffered/"+size.name, func(b *testing.B) {
			run(b, size.bytes, func() (net.Conn, net.Conn) { return net.Pipe() })
		})
	}
}

// BenchmarkAblationTraversal compares capped BFS against an uncapped crawl
// of a deep tree.
func BenchmarkAblationTraversal(b *testing.B) {
	// One deep host: 30 × 20 directories.
	ip := simnet.MustParseIP("100.64.0.1")
	root := vfs.NewDir("/", vfs.Perm755)
	for i := 0; i < 30; i++ {
		branch := root.Add(vfs.NewDir(fmt.Sprintf("a%02d", i), vfs.Perm755))
		for j := 0; j < 20; j++ {
			leaf := branch.Add(vfs.NewDir(fmt.Sprintf("b%02d", j), vfs.Perm755))
			leaf.Add(vfs.NewFile("data.bin", vfs.Perm644, 10))
		}
	}
	srv, err := ftpserver.New(ftpserver.Config{
		Pers:           personality.ByKey(personality.KeyProFTPD135),
		Driver:         vfs.New(root),
		PublicIP:       ip,
		AllowAnonymous: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	provider := simnet.NewStaticProvider()
	provider.Add(ip, 21, srv.SimHandler())
	nw := simnet.NewNetwork(provider)

	run := func(b *testing.B, cap int) {
		for i := 0; i < b.N; i++ {
			rec := enumerator.Enumerate(context.Background(), enumerator.Config{
				Dialer:     simnet.Dialer{Net: nw, Src: simnet.MustParseIP("250.0.0.1")},
				RequestCap: cap,
				Timeout:    10 * time.Second,
			}, ip.String())
			b.ReportMetric(float64(len(rec.Files)), "files")
			b.ReportMetric(float64(rec.RequestsUsed), "requests")
		}
	}
	b.Run("capped-500", func(b *testing.B) { run(b, 500) })
	b.Run("uncapped", func(b *testing.B) { run(b, 1<<20) })
}

// BenchmarkAblationMLSD compares traversal via classic LIST parsing against
// RFC 3659 MLSD machine-readable listings on the same host.
func BenchmarkAblationMLSD(b *testing.B) {
	ip := simnet.MustParseIP("100.64.0.4")
	root := vfs.NewDir("/", vfs.Perm755)
	for i := 0; i < 20; i++ {
		d := root.Add(vfs.NewDir(fmt.Sprintf("d%02d", i), vfs.Perm755))
		for j := 0; j < 25; j++ {
			d.Add(vfs.NewFile(fmt.Sprintf("f%03d.dat", j), vfs.Perm644, 1000))
		}
	}
	mk := func(persKey string) *simnet.Network {
		srv, err := ftpserver.New(ftpserver.Config{
			Pers:           personality.ByKey(persKey),
			Driver:         vfs.New(root),
			PublicIP:       ip,
			AllowAnonymous: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		provider := simnet.NewStaticProvider()
		provider.Add(ip, 21, srv.SimHandler())
		return simnet.NewNetwork(provider)
	}
	run := func(b *testing.B, persKey string) {
		nw := mk(persKey)
		cfg := enumerator.Config{
			Dialer:  simnet.Dialer{Net: nw, Src: simnet.MustParseIP("250.0.0.1")},
			Timeout: 10 * time.Second,
		}
		for i := 0; i < b.N; i++ {
			rec := enumerator.Enumerate(context.Background(), cfg, ip.String())
			b.ReportMetric(float64(len(rec.Files)), "files")
		}
	}
	// ProFTPD 1.3.5 advertises MLST; 1.3.2 does not — same engine, same
	// tree, different listing path.
	b.Run("mlsd", func(b *testing.B) { run(b, personality.KeyProFTPD135) })
	b.Run("list", func(b *testing.B) { run(b, personality.KeyProFTPD132) })
}

// BenchmarkAblationConcurrency sweeps the enumerator fleet size.
func BenchmarkAblationConcurrency(b *testing.B) {
	census, err := core.NewCensus(core.CensusConfig{Seed: 11, Scale: benchScale() * 8})
	if err != nil {
		b.Fatal(err)
	}
	// Discover once.
	scanner, err := zmap.NewScanner(zmap.Config{
		Network: census.Network, Base: census.World.ScanBase,
		Size: census.World.ScanSize, Port: 21, Seed: 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	discovered, err := scanner.Collect(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fleet := &enumerator.Fleet{
					Cfg:        enumerator.Config{Timeout: 10 * time.Second},
					Network:    census.Network,
					SourceBase: core.ScannerBase,
					Workers:    workers,
				}
				in := make(chan simnet.IP, len(discovered))
				for _, r := range discovered {
					in <- r.IP
				}
				close(in)
				out := make(chan *dataset.HostRecord, 256)
				done := make(chan int, 1)
				go func() {
					n := 0
					for range out {
						n++
					}
					done <- n
				}()
				fleet.Run(context.Background(), in, out)
				b.ReportMetric(float64(<-done), "hosts")
			}
		})
	}
}

// BenchmarkEnumerateSingleHost measures one full host enumeration.
func BenchmarkEnumerateSingleHost(b *testing.B) {
	ip := simnet.MustParseIP("100.64.0.2")
	root := vfs.NewDir("/", vfs.Perm755)
	pub := root.Add(vfs.NewDir("pub", vfs.Perm755))
	for i := 0; i < 50; i++ {
		pub.Add(vfs.NewFile(fmt.Sprintf("f%03d.dat", i), vfs.Perm644, 1000))
	}
	srv, err := ftpserver.New(ftpserver.Config{
		Pers:           personality.ByKey(personality.KeyProFTPD135),
		Driver:         vfs.New(root),
		PublicIP:       ip,
		AllowAnonymous: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	provider := simnet.NewStaticProvider()
	provider.Add(ip, 21, srv.SimHandler())
	nw := simnet.NewNetwork(provider)
	cfg := enumerator.Config{
		Dialer:  simnet.Dialer{Net: nw, Src: simnet.MustParseIP("250.0.0.1")},
		Timeout: 10 * time.Second,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := enumerator.Enumerate(context.Background(), cfg, ip.String())
		if !rec.AnonymousOK {
			b.Fatal("login failed")
		}
	}
}

// BenchmarkProbeFanout measures the discovery fast path per address, in the
// shape of the scanner's inner loop: Network.ProbeRetries with two retries
// against the world provider, at increasing worker counts. Loss is enabled
// so the deterministic drop check is part of the measured path.
func BenchmarkProbeFanout(b *testing.B) {
	w, err := worldgen.New(worldgen.DefaultParams(42, benchScale()))
	if err != nil {
		b.Fatal(err)
	}
	nw := simnet.NewNetwork(w)
	nw.LossRate = 0.03
	nw.LossSeed = 42
	space := w.ScanSize
	base := uint64(w.ScanBase)
	for _, workers := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var wg sync.WaitGroup
			per := b.N/workers + 1
			for wk := 0; wk < workers; wk++ {
				wg.Add(1)
				go func(wk int) {
					defer wg.Done()
					off := (uint64(wk) * 0x9e3779b9) % space
					for i := 0; i < per; i++ {
						nw.ProbeRetries(simnet.IP(base+off), 21, 2)
						off++
						if off >= space {
							off = 0
						}
					}
				}(wk)
			}
			wg.Wait()
		})
	}
}

// BenchmarkProbeClosedPort isolates the closed-port probe path, the outcome
// of the overwhelming majority of a census's 3.68B probes.
func BenchmarkProbeClosedPort(b *testing.B) {
	w, err := worldgen.New(worldgen.DefaultParams(42, benchScale()))
	if err != nil {
		b.Fatal(err)
	}
	nw := simnet.NewNetwork(w)
	nw.LossRate = 0.03
	nw.LossSeed = 42
	space := w.ScanSize
	base := uint64(w.ScanBase)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Port 2121 is closed on every simulated host.
		nw.Probe(simnet.IP(base+uint64(i)%space), 2121, 0)
	}
}

// BenchmarkComputeTables measures the full analysis stage over the shared
// census fixture. The census already folded every record into the streaming
// accumulators, so iterations measure the finalize step alone — the cost
// that remains on the critical path after a run.
func BenchmarkComputeTables(b *testing.B) {
	res, _, _ := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables := res.ComputeTables()
		if tables.Funnel.FTPServers == 0 {
			b.Fatal("empty tables")
		}
	}
}

// --- Staged discovery funnel ----------------------------------------------

// mixedBenchWorld builds the identification fixture: a world with the
// default LZR-shaped service mix on port 21, its network, and one
// representative endpoint per ground-truth class ("ftp" plus the service
// classes actually drawn at this scale).
func mixedBenchWorld(b *testing.B) (*simnet.Network, map[string]simnet.IP) {
	b.Helper()
	params := worldgen.DefaultParams(11, benchScale())
	params.ServiceMix = worldgen.DefaultServiceMix()
	w, err := worldgen.New(params)
	if err != nil {
		b.Fatal(err)
	}
	reps := make(map[string]simnet.IP)
	base := uint64(w.ScanBase)
	for off := uint64(0); off < w.ScanSize; off++ {
		ip := simnet.IP(base + off)
		truth, ok := w.Truth(ip)
		if !ok {
			continue
		}
		var key string
		switch {
		case truth.FTP:
			key = "ftp"
		case truth.NonFTPOpen:
			key = truth.Service.String()
		default:
			continue
		}
		if _, seen := reps[key]; !seen {
			reps[key] = ip
		}
	}
	return simnet.NewNetwork(w), reps
}

// BenchmarkIdentifyRoundTrip measures one identification round-trip per
// service class — the entire cost the funnel pays to dispose of an endpoint.
// Server-first protocols (ftp, ssh, telnet, garbage) resolve on their banner
// alone; client-first ones (http, tls) and silent hosts pay the banner wait
// before the trigger buys the deciding bytes.
func BenchmarkIdentifyRoundTrip(b *testing.B) {
	nw, reps := mixedBenchWorld(b)
	cfg := identify.Config{
		Dialer:     simnet.Dialer{Net: nw, Src: core.IdentifyBase},
		BannerWait: 50 * time.Millisecond,
	}
	for _, class := range []string{"ftp", "ssh", "http", "tls", "silent"} {
		ip, ok := reps[class]
		if !ok {
			continue // class not drawn at this scale
		}
		b.Run(class, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := identify.Identify(context.Background(), cfg, ip.String())
				if res.Err != nil {
					b.Fatal(res.Err)
				}
				if class == "ftp" && res.Protocol != fingerprint.ProtoFTP {
					b.Fatalf("FTP endpoint sniffed as %q", res.Protocol)
				}
			}
		})
	}
}

// BenchmarkShedVsEnumerate prices the funnel's trade on one non-FTP
// endpoint: shedding it with an identification round-trip versus burning the
// full enumeration attempt the legacy two-stage pipeline paid. Both paths
// get the same per-operation timeout, so the difference is round-trips and
// protocol machinery, not budget.
func BenchmarkShedVsEnumerate(b *testing.B) {
	nw, reps := mixedBenchWorld(b)
	// HTTP is the funnel's worst case: client-first, so identification
	// waits out the full banner window before the trigger resolves it.
	ip, ok := reps["http"]
	if !ok {
		b.Skip("no http service host drawn at this scale")
	}
	const budget = 200 * time.Millisecond
	src := core.IdentifyBase
	b.Run("identify-shed", func(b *testing.B) {
		cfg := identify.Config{Dialer: simnet.Dialer{Net: nw, Src: src}, BannerWait: budget}
		for i := 0; i < b.N; i++ {
			res := identify.Identify(context.Background(), cfg, ip.String())
			if res.Protocol != fingerprint.ProtoHTTP {
				b.Fatalf("http endpoint sniffed as %q", res.Protocol)
			}
		}
	})
	b.Run("enumerate-burn", func(b *testing.B) {
		cfg := enumerator.Config{Dialer: simnet.Dialer{Net: nw, Src: src}, Timeout: budget}
		for i := 0; i < b.N; i++ {
			rec := enumerator.Enumerate(context.Background(), cfg, ip.String())
			if rec.FTP {
				b.Fatal("service host misread as FTP")
			}
		}
	})
}

// BenchmarkMixedCensus runs the full census over a mixed world with the
// legacy two-stage pipeline and with the staged funnel. The funnel's gain is
// every enumeration slot it never burns on a service host; its cost is one
// extra round-trip on every true FTP endpoint.
func BenchmarkMixedCensus(b *testing.B) {
	run := func(b *testing.B, on bool) {
		census, err := core.NewCensus(core.CensusConfig{
			Seed:         11,
			Scale:        benchScale() * 8,
			ServiceMix:   worldgen.DefaultServiceMix(),
			Identify:     on,
			IdentifyWait: 100 * time.Millisecond,
			EnumTimeout:  500 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := census.Run(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Observed), "hosts")
			if on {
				b.ReportMetric(float64(res.ComputeTables().Unexpected.Total), "shed")
			}
		}
	}
	b.Run("two-stage-legacy", func(b *testing.B) { run(b, false) })
	b.Run("staged-funnel", func(b *testing.B) { run(b, true) })
}

// BenchmarkSimnetThroughput measures raw connection throughput.
func BenchmarkSimnetThroughput(b *testing.B) {
	provider := simnet.NewStaticProvider()
	ip := simnet.MustParseIP("100.64.0.3")
	provider.Add(ip, 9, simnet.HandlerFunc(func(_ *simnet.Network, conn net.Conn) {
		io.Copy(conn, conn)
	}))
	nw := simnet.NewNetwork(provider)
	payload := make([]byte, 64<<10)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn, err := nw.DialFrom(1, ip, 9)
		if err != nil {
			b.Fatal(err)
		}
		go func() {
			conn.Write(payload)
		}()
		buf := make([]byte, 64<<10)
		total := 0
		for total < len(payload) {
			n, err := conn.Read(buf)
			if err != nil {
				b.Fatal(err)
			}
			total += n
		}
		conn.Close()
	}
}

// --- Honeypot fleet at scale ----------------------------------------------

// honeypotFleetSessions returns the campaign budget for the fleet-scale
// benchmark (default one million sessions; FTPCLOUD_BENCH_SESSIONS scales
// it down for quick runs).
func honeypotFleetSessions() int64 {
	if s := os.Getenv("FTPCLOUD_BENCH_SESSIONS"); s != "" {
		if n, err := strconv.ParseInt(s, 10, 64); err == nil && n >= 1 {
			return n
		}
	}
	return 1_000_000
}

// BenchmarkHoneypotFleetMemory proves the streamed study's memory claim:
// 100 differentiated honeypots absorb a million-session attacker campaign
// while live heap stays bounded by the population, not the session count.
// Each iteration deploys the fleet, runs the campaign, finalizes the
// streamed report, releases the world, and reports the surviving heap bytes
// per session — the buffered Log path would pin hundreds of bytes per
// event; the accumulator's live-B/session must stay fractional.
func BenchmarkHoneypotFleetMemory(b *testing.B) {
	const honeypots = 100
	const bots = 5000
	sessions := honeypotFleetSessions()
	settle := func(ms *runtime.MemStats) {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(ms)
	}
	for i := 0; i < b.N; i++ {
		var before, after runtime.MemStats
		settle(&before)

		provider := simnet.NewStaticProvider()
		acc := honeypot.NewAccumulator()
		dep, err := honeypot.DeployFleet(provider, honeypot.FleetConfig{
			Base:  core.HoneypotBase,
			Count: honeypots,
			Seed:  uint64(i + 1),
			Acc:   acc,
			Now:   honeypot.SimClock(time.Unix(1_450_000_000, 0), time.Millisecond),
		})
		if err != nil {
			b.Fatal(err)
		}
		fleet := &attacker.Fleet{
			Network:      simnet.NewNetwork(provider),
			Bots:         attacker.DefaultMix(bots, uint64(i+1), 0.30),
			Targets:      dep.IPs,
			BounceTarget: ftp.HostPort{IP: [4]byte{203, 0, 113, 66}, Port: 9999},
			Sessions:     sessions,
			Concurrency:  256,
		}
		stats := fleet.Run(context.Background())
		if int64(stats.Sessions) != sessions {
			b.Fatalf("campaign ran %d sessions, want %d", stats.Sessions, sessions)
		}
		rep := acc.Report()
		if rep.Summary.UniqueScanners == 0 {
			b.Fatal("fleet observed no scanners")
		}

		// Drop the world; what survives the GC is the accumulator state.
		provider, dep, fleet = nil, nil, nil //nolint:ineffassign // releases the world for the GC below
		settle(&after)

		live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		if live < 0 {
			live = 0
		}
		b.ReportMetric(float64(live)/float64(stats.Sessions), "live-B/session")
		b.ReportMetric(float64(live), "live-B")
		b.ReportMetric(float64(stats.Sessions), "sessions")
		runtime.KeepAlive(rep)
		runtime.KeepAlive(acc)
	}
}
