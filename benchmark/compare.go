package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles prints every end-to-end metric of every workload present in
// both result files with its bound — each change next to its base, medians
// where a file holds several runs of a workload — and returns an error
// when one worsened beyond its bound, a workload's failed share rose or
// its outputs stopped being correct.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	oldDoc, err := readDocument(oldPath)
	if err != nil {
		return err
	}
	newDoc, err := readDocument(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "old: %s  %s, seed %d, %s\n", oldPath, oldDoc.Environment.GitSHA, oldDoc.Environment.Seed, oldDoc.Environment.CPU)
	fmt.Fprintf(w, "new: %s  %s, seed %d, %s\n", newPath, newDoc.Environment.GitSHA, newDoc.Environment.Seed, newDoc.Environment.CPU)
	fmt.Fprintf(w, "%-22s %-16s %14s %14s %9s %7s\n", "workload", "metric", "old (base)", "new", "change", "bound")
	regressions, compared := 0, 0
	for _, wl := range workloads {
		o, n := untraced(oldDoc, wl.Name), untraced(newDoc, wl.Name)
		if len(o) == 0 || len(n) == 0 {
			continue
		}
		for _, d := range endToEnd {
			ov, nv := medianMetric(o, d.Name), medianMetric(n, d.Name)
			// worse is the change in the metric's bad direction, as a share
			// of the old value.
			worse := (nv - ov) / ov
			if d.Better == "higher" {
				worse = (ov - nv) / ov
			}
			verdict := ""
			if worse > d.Bound {
				verdict = "  REGRESSION"
				regressions++
			}
			compared++
			fmt.Fprintf(w, "%-22s %-16s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n",
				wl.Name, d.Name, ov, nv, 100*(nv-ov)/ov, 100*d.Bound, verdict)
		}
		os, oldCorrect := failedShare(o)
		ns, newCorrect := failedShare(n)
		verdict := ""
		if ns > os || oldCorrect && !newCorrect {
			verdict = "  REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "%-22s %-16s %14.6f %14.6f %9s %7s%s  (%d and %d runs)\n",
			wl.Name, "failed_share", os, ns, "", "0", verdict, len(o), len(n))
	}
	if compared == 0 {
		return fmt.Errorf("the two files share no untraced workload result")
	}
	if regressions > 0 {
		return fmt.Errorf("%d metrics worsened beyond their bound", regressions)
	}
	return nil
}

func readDocument(path string) (*document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// untraced finds a workload's end-to-end results in a document: one per
// -repeat.
func untraced(doc *document, name string) []*result {
	var runs []*result
	for i := range doc.Results {
		if r := &doc.Results[i]; r.Workload == name && !r.Traced {
			runs = append(runs, r)
		}
	}
	return runs
}

// medianMetric is the median of a metric over a file's runs of a workload.
func medianMetric(runs []*result, name string) float64 {
	vals := make([]float64, len(runs))
	for i, r := range runs {
		vals[i] = r.Metrics[name].Value
	}
	return medianFloat(vals)
}

// failedShare is failed over attempted packages across a file's runs of a
// workload, and whether every run was correct.
func failedShare(runs []*result) (float64, bool) {
	var attempted, failed uint64
	correct := true
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
		correct = correct && r.Correct
	}
	return float64(failed) / float64(attempted), correct
}
