// Command ftpdelta diffs two census runs — the longitudinal view the
// paper's single sweep could not take. Point it at the JSONL ledgers two
// censuses streamed (-out): it folds each into the paper's tables to trend
// the headline counters, and diffs them host by host to resolve churn and
// version-migration flows.
//
// Usage:
//
//	ftpdelta -from epoch0.jsonl -to epoch1.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ftpcloud/internal/dataset"
	"ftpcloud/internal/delta"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "ftpdelta: %v\n", err)
		os.Exit(1)
	}
}

func loadLedger(path string) ([]*dataset.HostRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := dataset.ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ftpdelta", flag.ExitOnError)
	fromPath := fs.String("from", "", "earlier census's JSONL ledger (required)")
	toPath := fs.String("to", "", "later census's JSONL ledger (required)")
	fs.Parse(args)

	if *fromPath == "" || *toPath == "" {
		return fmt.Errorf("usage: ftpdelta -from <jsonl> -to <jsonl>")
	}
	before, err := loadLedger(*fromPath)
	if err != nil {
		return err
	}
	after, err := loadLedger(*toPath)
	if err != nil {
		return err
	}
	_, err = io.WriteString(stdout, delta.CompareLedgers(before, after).Render())
	return err
}
