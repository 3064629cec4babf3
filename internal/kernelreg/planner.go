package kernelreg

import (
	"fmt"

	"repro/internal/csf"
	"repro/internal/levels"
	"repro/internal/obs"
	"repro/internal/roofline"
)

// Conversion planning. Format conversions (COO→CSF, COO→hierarchy,
// CSF→blocked-CSF) are the untimed Prepare work the obs PhaseConvert
// spans measure. Each level-view format has one fixed path, the one
// that measures fastest: CSF wraps the workbench's cached csf.FromCOO
// tree, blocked-CSF splits that same tree's root, and the COO and
// HiCOO views are built directly from COO. The Workbench caches every
// tree and hierarchy, and the daemon caches workbenches per dataset, so
// one request's conversion serves the next.

// Conversion edges. Each edge name doubles as its obs span label.
const (
	// EdgeCSFFromCOO clones, sorts, and compresses COO into a CSF tree.
	EdgeCSFFromCOO = "csf.FromCOO"
	// EdgeBuild is a direct COO→hierarchy materialization; the full span
	// label carries the format, e.g. "levels.Build:HiCOO".
	EdgeBuild = "levels.Build"
	// EdgeBlockRoot splits a CSF-shaped hierarchy's root into a coarse
	// blocked level (one linear scan).
	EdgeBlockRoot = "levels.BlockRoot"
)

// LevelSignature returns a format's declared level signature for one
// tensor order, or false for formats without a level view (fCOO's
// segmented flags do not decompose into per-mode levels).
func LevelSignature(f roofline.Format, order int, blockBits uint8) (levels.Signature, bool) {
	switch f {
	case roofline.COO:
		return levels.COOSig(order), true
	case roofline.HiCOO:
		return levels.HiCOOSig(order, blockBits), true
	case roofline.CSF:
		return levels.CSFSig(order), true
	case roofline.BCSF:
		return levels.BCSFSig(order, blockBits), true
	}
	return levels.Signature{}, false
}

func moKey(modeOrder []int) string { return fmt.Sprint(modeOrder) }

// CSF returns the workbench's CSF tree for one mode order, building and
// caching it on first use. site labels the conversion span's operand
// (the requesting variant), so distinct call sites stay distinct trace
// lanes.
func (wb *Workbench) CSF(modeOrder []int, site string) (*csf.CSF, error) {
	wb.mu.Lock()
	defer wb.mu.Unlock()
	return wb.csfLocked(modeOrder, site)
}

func (wb *Workbench) csfLocked(modeOrder []int, site string) (*csf.CSF, error) {
	key := moKey(modeOrder)
	if c, ok := wb.csfs[key]; ok {
		return c, nil
	}
	sp := obs.Begin(EdgeCSFFromCOO, site, obs.PhaseConvert, -1)
	c, err := csf.FromCOO(wb.X, modeOrder)
	sp.End()
	if err != nil {
		return nil, err
	}
	wb.csfs[key] = c
	return c, nil
}

// Hier returns a hierarchy of format f over the given mode order along
// the format's fixed conversion path, caching the result. The returned
// plan string names the path taken (surfaced through Instance.Plan into
// pastabench rows and pastad's /run response): "cached" on a hierarchy
// cache hit, "reuse-csf" or "via-csf:csf.FromCOO" for CSF (tree resident
// or built now), the same with "+levels.BlockRoot"/":levels.BlockRoot"
// for blocked-CSF, and "direct:levels.Build:<format>" for the COO and
// HiCOO views.
func (wb *Workbench) Hier(f roofline.Format, modeOrder []int, site string) (*levels.Hierarchy, string, error) {
	sig, ok := LevelSignature(f, wb.X.Order(), wb.cfg.BlockBits)
	if !ok {
		return nil, "", fmt.Errorf("kernelreg: format %s has no level view", f)
	}
	wb.mu.Lock()
	defer wb.mu.Unlock()
	key := f.String() + moKey(modeOrder)
	if h, ok := wb.hiers[key]; ok {
		return h, "cached", nil
	}

	var h *levels.Hierarchy
	var plan string
	var err error
	switch f {
	case roofline.CSF, roofline.BCSF:
		_, resident := wb.csfs[moKey(modeOrder)]
		join := "+"
		plan = "via-csf:" + EdgeCSFFromCOO
		if resident {
			plan, join = "reuse-csf", ":"
		}
		var c *csf.CSF
		if c, err = wb.csfLocked(modeOrder, site); err != nil {
			break
		}
		h = levels.FromCSF(c)
		if f == roofline.BCSF {
			plan += join + EdgeBlockRoot
			sp := obs.Begin(EdgeBlockRoot, site, obs.PhaseConvert, -1)
			h, err = levels.BlockRoot(h, wb.cfg.BlockBits)
			sp.End()
		}
	default:
		edge := EdgeBuild + ":" + f.String()
		plan = "direct:" + edge
		sp := obs.Begin(edge, site, obs.PhaseConvert, -1)
		h, err = levels.Build(wb.X, sig, modeOrder)
		sp.End()
	}
	if err != nil {
		return nil, "", err
	}
	wb.hiers[key] = h
	return h, plan, nil
}

// convSites is the static table of (span label, operand) pairs the
// registry's fixed conversion call sites emit, pinned by the obs-label
// lint: two sites sharing a (label, operand) pair would merge into one
// trace lane. The planner's spans (the Edge* labels) take the
// requesting variant's label as their operand instead.
var convSites = [][2]string{
	{"fcoo.FromCOO", "Ttv"},
	{"fcoo.FromCOOMttkrp", "Mttkrp"},
	{"hicoo.FromCOO", "X"},
	{"hicoo.FromCOO", "Y"},
}
