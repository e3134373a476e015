package sim

// Exhaustive evaluates every configuration of the machine's DoP space with
// dynamic distribution and returns the best configuration, its result, and
// the full table of results (the paper's oracle) — the reference the
// co-execution and property tests compare against.
func Exhaustive(m *Machine, km *KernelModel) (Config, *Result, map[Config]*Result, error) {
	table := make(map[Config]*Result)
	var best Config
	var bestRes *Result
	for _, cfg := range m.Configs() {
		r, err := Simulate(m, km, cfg, Dynamic, SimOptions{})
		if err != nil {
			return Config{}, nil, nil, err
		}
		table[cfg] = r
		if bestRes == nil || r.Time < bestRes.Time {
			best, bestRes = cfg, r
		}
	}
	return best, bestRes, table, nil
}
