package check

import "mpisim/internal/net"

// passNetConfig validates the machine model's interconnect
// configuration at the checked rank count: the -topology spec parses,
// the graph (for graph: topologies, the -netjson file) is loadable,
// connected and has positive link parameters, and the -placement policy
// resolves. A bad network configuration thereby fails at check time
// with a diagnostic instead of at simulation start.
//
// The pass is inert (no diagnostics) when no machine model was supplied
// or its topology is flat.
func passNetConfig(c *Context) []Diagnostic {
	m := c.Opts.Machine
	if m == nil {
		return nil
	}
	nw, err := net.Build(m, c.Ranks)
	if err != nil {
		return []Diagnostic{c.diag("netconfig", Error, nil, "invalid network configuration: %v", err)}
	}
	if nw == nil {
		return nil // flat: the analytic model needs no validation
	}
	var diags []Diagnostic
	if nw.Hosts > c.Ranks {
		diags = append(diags, c.diag("netconfig", Warning, nil,
			"topology %s has %d hosts but only %d ranks: %d host(s) idle",
			nw.Spec, nw.Hosts, c.Ranks, nw.Hosts-c.Ranks))
	}
	if nw.MultiRankHosts() && nw.Kind != "bus" {
		diags = append(diags, c.diag("netconfig", Info, nil,
			"placement %s packs %d ranks onto %d hosts: co-resident ranks communicate node-locally, bypassing the %s fabric",
			nw.Placement, c.Ranks, nw.Hosts, nw.Kind))
	}
	return diags
}
