// Bounce-audit example: sweep a simulated world for the classic FTP bounce
// vulnerability (§VII.B). For every anonymous server the enumerator sends a
// PORT command naming a collector we control and observes whether the
// server opens a data connection to that third party — the exact test the
// paper ran, safe here because every "victim" is simulated.
//
// Run with:
//
//	go run ./examples/bounce-audit [-scale 16384]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"ftpcloud/internal/core"
	"ftpcloud/internal/dataset"
	"ftpcloud/internal/fingerprint"
	"ftpcloud/internal/report"
)

func main() {
	scale := flag.Int("scale", 16384, "world scale divisor")
	flag.Parse()

	// The census streams every record through its analysis; a Collector on
	// the stream keeps them so the audit can list individual hosts.
	hosts := &dataset.Collector{}
	census, err := core.NewCensus(core.CensusConfig{Seed: 7, Scale: *scale, StreamTo: hosts})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("auditing %d simulated addresses for PORT-bounce exposure...\n\n", census.World.ScanSize)
	result, err := census.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	tables := result.ComputeTables()
	fmt.Print(report.PortBounce(tables.PortBounce))

	// List a sample of vulnerable hosts with their implementations.
	fmt.Println("\nSample of vulnerable hosts:")
	shown := 0
	for _, rec := range hosts.Records {
		if rec.PortCheck != dataset.PortNotValidated {
			continue
		}
		c := fingerprint.Classify(rec)
		software := c.Software
		if software == "" {
			software = "(unidentified)"
		}
		flags := ""
		if len(rec.WriteEvidence) > 0 {
			flags += " [writable: bounce-attack ready]"
		}
		if rec.PASVMismatch {
			flags += " [NAT: internal scan possible]"
		}
		fmt.Printf("  %-15s %-20s%s\n", rec.IP, software, flags)
		shown++
		if shown >= 15 {
			fmt.Printf("  ... and %d more\n", tables.PortBounce.NotValidated-shown)
			break
		}
	}
}
