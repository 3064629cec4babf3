package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// softCounts are exact counts whose repetition is reported but does not
// fail the run: the planner picks its conversion path from measured
// conversion costs, so a timing outlier can legitimately change a plan.
var softCounts = map[string]bool{"plans": true}

// checkCounts compares this run's exact counts with those an earlier run
// of the same build, workload and seed left in the checkout, then stores
// the union. A count that differs makes the run incorrect: it means the
// inputs, the request sequence, or the program's work is not a function
// of the seed, and a count-based claim could not be re-checked. Counts
// are keyed by a digest of the executable, so a change to the program
// that legitimately moves a count starts a new record instead of
// failing against the old one.
func (b *bench) checkCounts() error {
	dir := filepath.Join(b.out, "counts")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	build, err := buildDigest()
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", b.workload, b.seed, build))
	merged := map[string]string{}
	matched := 0
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &merged); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for k, v := range b.counts {
			old, ok := merged[k]
			switch {
			case !ok:
			case old == v:
				matched++
			case softCounts[k]:
				fmt.Fprintf(os.Stderr, "perfledger: note: %s differ from an earlier run of seed %d: %s, then %s\n", k, b.seed, old, v)
			default:
				b.bad("exact count %q differs from an earlier run of seed %d: %s, then %s", k, b.seed, old, v)
			}
		}
	}
	for k, v := range b.counts {
		merged[k] = v
	}
	fmt.Printf("exact counts: %d recorded, %d matched an earlier run of this seed (%s)\n", len(b.counts), matched, path)
	data, err := json.MarshalIndent(merged, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// buildDigest names the running executable by a prefix of its SHA-256.
// run.py builds with -trimpath and without VCS stamping, so the digest
// depends on the sources and the toolchain only.
func buildDigest() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
