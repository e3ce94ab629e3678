package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"

	"cdna/internal/bench"
	"cdna/internal/campaign"
	"cdna/internal/core"
)

// The paper's own numbers for the cells internal/bench's shape tests
// pin (Tables 1–4 of Shafer et al., HPCA 2007): Mb/s, CPU-profile
// percentages and interrupt rates of the single-guest rows.
//
//go:embed paper_ref.json
var paperRefJSON []byte

// paperCell is one reference value and the grid point it belongs to.
type paperCell struct {
	Cell       string          `json:"cell"`
	Source     string          `json:"source"`
	Mode       bench.Mode      `json:"mode"`
	NIC        bench.NICKind   `json:"nic"`
	Dir        bench.Direction `json:"dir"`
	NICs       int             `json:"nics"`
	Protection core.Mode       `json:"protection"`
	Metric     string          `json:"metric"`
	Paper      float64         `json:"paper"`
}

// cellError is one cell's simulated value and its relative error.
type cellError struct {
	Cell   string  `json:"cell"`
	Paper  float64 `json:"paper"`
	Sim    float64 `json:"sim"`
	ErrPct float64 `json:"err_pct"`
}

func loadPaperCells() ([]paperCell, error) {
	var cells []paperCell
	if err := json.Unmarshal(paperRefJSON, &cells); err != nil {
		return nil, fmt.Errorf("paper_ref.json: %w", err)
	}
	return cells, nil
}

// matches reports whether a record is the cell's single-guest grid
// point: the cell's architecture, direction, NIC count and protection,
// with every ablation knob at its default.
func (c paperCell) matches(cfg bench.Config) bool {
	return cfg.Mode == c.Mode && cfg.NIC == c.NIC && cfg.Dir == c.Dir &&
		cfg.NICs == c.NICs && cfg.Guests == 1 && cfg.Protection == c.Protection &&
		cfg.Hosts <= 1 && cfg.MaxEnqueueBatch == 0 && !cfg.DirectPerContextIRQ &&
		cfg.TxCoalescePkts == 0
}

func cellValue(metric string, r bench.Result) (float64, error) {
	switch metric {
	case "mbps":
		return r.Mbps, nil
	case "idle_pct":
		return 100 * r.Profile.Idle, nil
	case "hyp_pct":
		return 100 * r.Profile.Hyp, nil
	case "driver_pct":
		return 100 * (r.Profile.DriverOS + r.Profile.DriverUser), nil
	case "guest_os_pct":
		return 100 * r.Profile.GuestOS, nil
	case "guest_intr_per_sec":
		return r.GuestIntrPerSec, nil
	case "driver_intr_per_sec":
		return r.DriverIntrPerSec, nil
	}
	return 0, fmt.Errorf("paper_ref.json: unknown metric %q", metric)
}

// paperErrors compares the sweep's records with the paper's cells: each
// cell must match exactly one successful record. It returns the
// per-cell errors and their mean absolute relative error in percent.
func paperErrors(cells []paperCell, recs []campaign.Record) ([]cellError, float64, error) {
	var out []cellError
	var sum float64
	for _, c := range cells {
		var found []campaign.Record
		for _, r := range recs {
			if !r.Failed() && c.matches(r.Config) {
				found = append(found, r)
			}
		}
		if len(found) != 1 {
			return nil, 0, fmt.Errorf("paper cell %q matches %d records, want 1", c.Cell, len(found))
		}
		v, err := cellValue(c.Metric, found[0].Result)
		if err != nil {
			return nil, 0, err
		}
		e := 100 * math.Abs(v-c.Paper) / c.Paper
		out = append(out, cellError{Cell: c.Cell, Paper: c.Paper, Sim: v, ErrPct: e})
		sum += e
	}
	if len(out) == 0 {
		return nil, 0, fmt.Errorf("paper_ref.json holds no cells")
	}
	return out, sum / float64(len(out)), nil
}
