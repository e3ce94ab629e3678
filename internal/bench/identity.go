package bench

// Experiment identity for the campaign result cache (internal/store).
// The determinism contract makes a result a pure function of two
// things: the normalized configuration and the model build that ran
// it. Normalize pins the first; the campaign layer keys the second on
// a hash of the running executable.

// Normalize returns the fault-complete, connection-balanced form of a
// configuration — the canonical identity under which results are
// cached and compared. It applies exactly the normalization Prepare
// applies before building a machine (default fault schedule, balanced
// connection count, default calibration), so two configurations that
// run identically normalize identically. Invalid configurations are
// rejected before any default is filled in.
func Normalize(cfg Config) (Config, error) {
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	cfg.Fault = cfg.Fault.withDefaults(cfg.Duration)
	if cfg.ConnsPerGuestPerNIC == 0 {
		cfg.ConnsPerGuestPerNIC = connsFor(cfg.Guests)
	}
	if cfg.Cal == (Calibration{}) {
		cfg.Cal = Default()
	}
	return cfg, nil
}
