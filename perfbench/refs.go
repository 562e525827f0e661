package main

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
)

// repoRoot is where the benchmark finds the stored references and the
// paper's figure CSVs: the repository root it is run from (tests run from
// the benchmark's own directory and point it one level up).
var repoRoot = "."

func refPath(name string) string { return filepath.Join(repoRoot, "perfbench", "ref", name) }

func loadJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func saveJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// readFigureCSV reads one of the paper's figure CSVs (first column the
// inductance in nH/mm, then one column per technology node).
func readFigureCSV(path string) ([][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var rows [][]float64
	for _, rec := range recs[1:] {
		row := make([]float64, len(rec))
		for i, s := range rec {
			if row[i], err = strconv.ParseFloat(s, 64); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// relErr is |got-want| relative to |want|.
func relErr(got, want float64) float64 {
	if got == want {
		return 0
	}
	return math.Abs(got-want) / math.Abs(want)
}

// checkRel fails when got is not within tol of want, relative.
func checkRel(what string, got, want, tol float64) error {
	if e := relErr(got, want); !(e <= tol) {
		return fmt.Errorf("%s = %.12g, reference %.12g (relative error %.3g > %.3g)", what, got, want, e, tol)
	}
	return nil
}

// generateRefs recomputes every stored reference from the current code.
func generateRefs() error {
	if err := genSweepRef(); err != nil {
		return fmt.Errorf("sweep reference: %w", err)
	}
	if err := genTransientRef(); err != nil {
		return fmt.Errorf("transient reference: %w", err)
	}
	if err := genPDNRef(); err != nil {
		return fmt.Errorf("pdn reference: %w", err)
	}
	return nil
}
