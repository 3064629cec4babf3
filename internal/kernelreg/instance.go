package kernelreg

import "context"

// Instance is one prepared, executable unit of a variant on a workbench
// mode. Run and Serial are alternative rungs over the same logical
// computation; Check and Output always reflect whichever rung wrote
// last, so a degradation ladder can validate exactly the buffer it is
// about to report.
type Instance struct {
	// Flops is the Table 1 work of one execution (plan FlopCount).
	Flops int64
	// Run executes the variant's native backend under ctx (cooperative
	// cancellation via parallel.Options.Ctx / gpusim.Device.SetContext).
	Run func(ctx context.Context) error
	// Serial is the fallback rung: the format's native serial path, or
	// the serial COO reference when Caps.SerialRef is set.
	Serial func(ctx context.Context) error
	// Check scans the current output for non-finite values.
	Check func() error
	// Strategy reports the reduction strategy the last Run resolved
	// (StrategyAware variants); nil otherwise.
	Strategy func() string
	// Plan names the conversion path Workbench.Hier took while preparing
	// this instance (e.g. "reuse-csf:levels.BlockRoot"); empty when no
	// planned conversion happened.
	Plan string
	// out yields the current output object for Output()/Check.
	out func() any
}

// Output returns the canonical form of the instance's current output.
func (i *Instance) Output() Canon { return canonOf(i.out()) }
