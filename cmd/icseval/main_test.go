package main

import (
	"bytes"
	"io"
	"regexp"
	"strings"
	"testing"
)

// evalModels are the rows of Tables IV and V: the framework and the six
// baselines the paper compares it against.
var evalModels = []string{"Our framework", "BF", "BN", "SVDD", "IF", "GMM", "PCA-SVD"}

// evalAttacks are the attack types of Table II, one block of Table V each.
var evalAttacks = []string{"NMRI", "CMRI", "MSCI", "MPCI", "MFCI", "DoS", "Recon"}

// runEval runs a small evaluation and returns stdout without its last
// line, the only one that carries a wall-clock figure.
func runEval(t *testing.T) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-packages", "6000", "-epochs", "1", "-quiet"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	if stderr.Len() != 0 {
		t.Errorf("-quiet run wrote to stderr: %q", stderr.String())
	}
	out := strings.TrimSuffix(stdout.String(), "\n")
	last := strings.LastIndexByte(out, '\n') + 1
	if !strings.Contains(out[last:], "total wall clock") {
		t.Fatalf("last line %q is not the wall-clock line", out[last:])
	}
	return out[:last]
}

func TestRunPrintsEveryTableAndFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("two training runs; the command starts no goroutine of its own for -race -short to watch")
	}
	out := runEval(t)
	if again := runEval(t); again != out {
		t.Fatalf("two runs with the same flags differ:\n--- first\n%s\n--- second\n%s", out, again)
	}

	// Every section heading, in the paper's order.
	at, pos := map[string]int{}, 0
	for _, h := range []string{"Figure 4:", "Figure 5:", "Table III:", "Figure 6:", "Figure 7:", "Table IV:", "Table V:"} {
		i := strings.Index(out[pos:], h)
		if i < 0 {
			t.Fatalf("heading %q missing or out of order", h)
		}
		pos += i
		at[h] = pos
	}
	tableIV, tableV := out[at["Table IV:"]:at["Table V:"]], out[at["Table V:"]:]

	for _, m := range evalModels {
		row := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(m) + `( +\d\.\d\d){4}$`)
		if !row.MatchString(tableIV) {
			t.Errorf("Table IV has no row for %q", m)
		}
		for _, attack := range evalAttacks {
			row := regexp.MustCompile(`(?m)^` + attack + ` +` + regexp.QuoteMeta(m) + ` +\d\.\d\d$`)
			if !row.MatchString(tableV) {
				t.Errorf("Table V has no row for %s × %q", attack, m)
			}
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-packages", "6000", "stray"},
	} {
		var stdout bytes.Buffer
		if err := run(args, &stdout, io.Discard); err == nil {
			t.Errorf("run(%q) = nil, want an error", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%q) printed results: %q", args, stdout.String())
		}
	}
}
