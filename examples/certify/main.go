// Certify example: run the §X "CyberUL" certification battery against a
// spectrum of simulated devices — from a hardened server to the
// anonymous-by-default, bounce-vulnerable consumer gear the paper found —
// and print each grade.
//
// Run with:
//
//	go run ./examples/certify
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"ftpcloud/internal/certify"
	"ftpcloud/internal/certs"
	"ftpcloud/internal/enumerator"
	"ftpcloud/internal/ftpserver"
	"ftpcloud/internal/personality"
	"ftpcloud/internal/simnet"
	"ftpcloud/internal/vfs"
)

// device describes one audit target.
type device struct {
	name string
	ip   simnet.IP
	cfg  ftpserver.Config
}

func main() {
	pool, err := certs.GeneratePool(9, []certs.Spec{
		{Name: "unique", CommonName: "nas-owner.example.org", SelfSigned: true},
		{Name: "fleet", CommonName: "QNAP NAS", SelfSigned: true},
	})
	if err != nil {
		log.Fatal(err)
	}

	leakyFS := vfs.NewDir("/", vfs.Perm777)
	docs := leakyFS.Add(vfs.NewDir("Documents", vfs.Perm755))
	docs.Add(vfs.NewFile("passwords.kdbx", vfs.Perm644, 4096))
	docs.Add(vfs.NewFile("TurboTax-2014.txf", vfs.Perm644, 120_000))

	devices := []device{
		{
			name: "hardened file server (Serv-U 15.1, TLS, no anonymous)",
			ip:   simnet.MustParseIP("100.64.0.1"),
			cfg: ftpserver.Config{
				Pers:   personality.ByKey(personality.KeyServU15),
				Driver: vfs.New(nil),
				Cert:   pool.Get("unique"),
			},
		},
		{
			name: "consumer NAS with factory defaults (anonymous on, fleet cert)",
			ip:   simnet.MustParseIP("100.64.0.2"),
			cfg: ftpserver.Config{
				Pers:           personality.ByKey(personality.KeyQNAPNAS),
				Driver:         vfs.New(leakyFS),
				AllowAnonymous: true,
				Cert:           pool.Get("fleet"),
				InternalIP:     simnet.MustParseIP("192.168.1.10"),
			},
		},
		{
			name: "shared-hosting account (home.pl stack: PORT unvalidated, writable)",
			ip:   simnet.MustParseIP("100.64.0.3"),
			cfg: ftpserver.Config{
				Pers:           personality.ByKey(personality.KeyHostedHomePL),
				Driver:         vfs.New(nil),
				AllowAnonymous: true,
				AnonWritable:   true,
			},
		},
	}

	provider := simnet.NewStaticProvider()
	for i := range devices {
		devices[i].cfg.PublicIP = devices[i].ip
		srv, err := ftpserver.New(devices[i].cfg)
		if err != nil {
			log.Fatal(err)
		}
		provider.Add(devices[i].ip, 21, srv.SimHandler())
	}
	nw := simnet.NewNetwork(provider)
	collector, err := enumerator.NewSimCollector(nw, simnet.MustParseIP("250.0.255.1"), 0)
	if err != nil {
		log.Fatal(err)
	}
	defer collector.Close()

	auditor := &certify.Auditor{
		Dialer:    simnet.Dialer{Net: nw, Src: simnet.MustParseIP("250.0.0.1")},
		Collector: collector,
		// The census observed the QNAP fleet certificate on ~57K devices.
		SharedFingerprints: map[string]int{
			fmt.Sprintf("%x", pool.Get("fleet").Fingerprint): 57655,
		},
		Timeout: 5 * time.Second,
	}

	for _, d := range devices {
		fmt.Printf("=== %s\n", d.name)
		report, err := auditor.Audit(context.Background(), d.ip.String())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(certify.Render(report))
		fmt.Println()
	}
}
