package worldgen

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"ftpcloud/internal/ftp"
	"ftpcloud/internal/obs"
	"ftpcloud/internal/simnet"
)

// evictClient is the source address the host-lifecycle tests dial from.
var evictClient = simnet.MustParseIP("99.0.0.1")

// plainWritable keeps clean, anonymously writable FTP hosts that serve
// without TLS, request caps or transport faults.
func plainWritable(t HostTruth) bool {
	return t.FTP && t.Anonymous && t.Writable && !t.RequireTLS &&
		t.RequestLimit == 0 && t.Fault == FaultNone
}

// findHosts returns up to n world addresses whose truth passes keep.
func findHosts(t *testing.T, w *World, n int, keep func(HostTruth) bool) []simnet.IP {
	t.Helper()
	var out []simnet.IP
	for off := uint64(0); off < w.ScanSize && len(out) < n; off++ {
		ip := simnet.IP(uint64(w.ScanBase) + off)
		if tr, ok := w.Truth(ip); ok && keep(tr) {
			out = append(out, ip)
		}
	}
	if len(out) == 0 {
		t.Skip("no matching host at this scale")
	}
	return out
}

// login dials ip:21 and logs in anonymously.
func login(nw *simnet.Network, ip simnet.IP) (*ftp.Conn, error) {
	nc, err := nw.DialFrom(evictClient, ip, 21)
	if err != nil {
		return nil, err
	}
	c := ftp.NewConn(nc)
	c.Timeout = 5 * time.Second
	if r, err := c.ReadReply(); err != nil || r.Code != ftp.CodeReady {
		c.Close()
		return nil, fmt.Errorf("banner: %+v %v", r, err)
	}
	c.Cmd("USER", "anonymous")
	if r, err := c.Cmd("PASS", "research@example.org"); err != nil || r.Code != ftp.CodeLoggedIn {
		c.Close()
		return nil, fmt.Errorf("PASS: %+v %v", r, err)
	}
	return c, nil
}

// transfer runs one data command over PASV: it sends body up (STOR) and
// returns what came down (LIST).
func transfer(nw *simnet.Network, c *ftp.Conn, ip simnet.IP, cmd, arg string, body []byte) ([]byte, error) {
	r, err := c.Cmd("PASV", "")
	if err != nil {
		return nil, err
	}
	hp, err := ftp.ParsePASVReply(r.Text())
	if err != nil {
		return nil, err
	}
	// The listener is on the host's public address, whatever the 227 says.
	dc, err := nw.DialFrom(evictClient, ip, hp.Port)
	if err != nil {
		return nil, err
	}
	if r, err := c.Cmd(cmd, arg); err != nil || !r.Preliminary() {
		dc.Close()
		return nil, fmt.Errorf("%s: %+v %v", cmd, r, err)
	}
	var got []byte
	if body != nil {
		_, err = dc.Write(body)
	} else {
		got, err = io.ReadAll(dc)
	}
	dc.Close()
	if err != nil {
		return nil, fmt.Errorf("%s data: %v", cmd, err)
	}
	if r, err := c.ReadReply(); err != nil || r.Code != ftp.CodeTransferOK {
		return nil, fmt.Errorf("%s completion: %+v %v", cmd, r, err)
	}
	return got, nil
}

// hasFile reports whether ip serves name, over a fresh connection.
func hasFile(nw *simnet.Network, ip simnet.IP, name string) (bool, error) {
	c, err := login(nw, ip)
	if err != nil {
		return false, err
	}
	defer c.Close()
	r, err := c.Cmd("SIZE", name)
	return r.Code == 213, err
}

// TestUploadSurvivesEviction: a written host is pinned for good. While
// other hosts are built and evicted and connections to the written host
// open and close concurrently, the upload stays visible.
func TestUploadSurvivesEviction(t *testing.T) {
	w := testWorld(t, 8192)
	nw := simnet.NewNetwork(w)
	ips := findHosts(t, w, 9, plainWritable)
	target, others := ips[0], ips[1:]

	c, err := login(nw, target)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := transfer(nw, c, target, "STOR", "/survivor.txt", []byte("kept")); err != nil {
		t.Fatal(err)
	}
	c.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() { // churn: clean hosts built and evicted
			defer wg.Done()
			for _, ip := range others {
				c, err := login(nw, ip)
				if err != nil {
					errs <- err
					return
				}
				c.Close()
			}
		}()
		go func() { // readers of the written host
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if ok, err := hasFile(nw, target, "/survivor.txt"); err != nil || !ok {
					errs <- fmt.Errorf("upload gone while connections churn: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	w.WaitIdle()
	if n := w.MaterializedHosts(); n != 1 {
		t.Errorf("%d hosts resident, want 1 (the written host)", n)
	}
	if ok, err := hasFile(nw, target, "/survivor.txt"); err != nil || !ok {
		t.Errorf("upload lost after the churn: %v", err)
	}
}

// TestRefusedPortLeavesNothingResident: a dial that Lookup answers but
// simnet refuses — a port the host does not listen on, such as a passive
// port whose listener already closed — pins nothing and leaves no host
// built.
func TestRefusedPortLeavesNothingResident(t *testing.T) {
	w := testWorld(t, 8192)
	reg := obs.NewRegistry()
	w.BindMetrics(reg)
	nw := simnet.NewNetwork(w)
	ips := findHosts(t, w, 2, plainWritable)

	if _, err := nw.DialFrom(evictClient, ips[0], 2121); !simnet.ErrRefused(err) {
		t.Fatalf("dial to port 2121: %v, want refused", err)
	}
	if n := w.MaterializedHosts(); n != 0 {
		t.Errorf("after a refused dial, %d hosts resident, want 0", n)
	}

	// A refused dial to a host a connection is using leaves it pinned.
	c, err := login(nw, ips[1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.DialFrom(evictClient, ips[1], 2121); !simnet.ErrRefused(err) {
		t.Fatalf("dial to port 2121: %v, want refused", err)
	}
	if n := w.MaterializedHosts(); n != 1 {
		t.Errorf("with a connection open, %d hosts resident, want 1", n)
	}
	c.Close()
	w.WaitIdle()
	if n := w.MaterializedHosts(); n != 0 {
		t.Errorf("after the close, %d hosts resident, want 0", n)
	}
	if built, evicted := reg.Counter("world.materialized").Load(), reg.Counter("world.evicted").Load(); built != 2 || evicted != 2 {
		t.Errorf("materialized %d, evicted %d; want 2 and 2", built, evicted)
	}
}

// TestRebuiltHostListsIdentically: a clean host is evicted when its
// connection closes, and the host rebuilt from truth on the next contact —
// planted campaign files included — serves a byte-identical root LIST.
func TestRebuiltHostListsIdentically(t *testing.T) {
	w := testWorld(t, 8192)
	reg := obs.NewRegistry()
	w.BindMetrics(reg)
	nw := simnet.NewNetwork(w)
	ip := findHosts(t, w, 1, func(tr HostTruth) bool {
		return plainWritable(tr) && len(tr.Campaigns) > 0
	})[0]

	list := func() []byte {
		t.Helper()
		c, err := login(nw, ip)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		body, err := transfer(nw, c, ip, "LIST", "/", nil)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	first := list()
	w.WaitIdle()
	if n := w.MaterializedHosts(); n != 0 {
		t.Fatalf("after the first connection, %d hosts resident, want 0", n)
	}
	second := list()
	if !bytes.Equal(first, second) {
		t.Errorf("rebuilt host lists differently:\nfirst:\n%s\nsecond:\n%s", first, second)
	}
	if len(first) == 0 {
		t.Error("empty root listing; the comparison is vacuous")
	}
	if got := reg.Counter("world.materialized").Load(); got != 2 {
		t.Errorf("materialized %d times, want 2 (built, evicted, rebuilt)", got)
	}
}

// TestConcurrentDialsServeOneEntry: dials racing a clean host's last close
// either pin the resident entry or re-admit the evicted one; two entries for
// one IP never serve at once. Each writer's upload must therefore land in
// the entry that stays resident.
func TestConcurrentDialsServeOneEntry(t *testing.T) {
	w := testWorld(t, 8192)
	nw := simnet.NewNetwork(w)
	const workers, rounds = 8, 4
	for _, ip := range findHosts(t, w, 3, plainWritable) {
		var wg sync.WaitGroup
		errs := make(chan error, workers*rounds)
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					c, err := login(nw, ip)
					if err != nil {
						errs <- err
						return
					}
					if g%2 == 0 {
						name := fmt.Sprintf("/w%d-%d", g, r)
						if _, err := transfer(nw, c, ip, "STOR", name, []byte(name)); err != nil {
							errs <- err
						}
					}
					c.Close()
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		w.WaitIdle()
		for g := 0; g < workers; g += 2 {
			for r := 0; r < rounds; r++ {
				name := fmt.Sprintf("/w%d-%d", g, r)
				if ok, err := hasFile(nw, ip, name); err != nil || !ok {
					t.Errorf("%s: upload %s lost (%v)", ip, name, err)
				}
			}
		}
	}
}
