package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// RunLocal runs a whole deployment in this process: a coordinator built
// from cfg plus cfg.NumHosts host workers on goroutines, each configured
// from the host template with CoordinatorAddr pointed at the
// coordinator's bound address. It returns the coordinator's result and
// the per-host results in launch order (HostResult.HostID is the
// coordinator-assigned identity); an entry is nil if the final teardown
// cut that host's session after the coordinator already had its result.
//
// A failing host must never strand the coordinator in Accept/Recv, nor
// the reverse: the first failure on either side cancels the shared run
// context and tears everything down before RunLocal returns. The error
// reported is ctx's own if the caller cancelled, else the coordinator's
// failure, else the first host failure; cancellations induced by another
// party's failure are symptoms and never reported on their own.
func RunLocal(ctx context.Context, cfg CoordinatorConfig, host HostConfig) (*Result, []*HostResult, error) {
	coord, err := NewCoordinator(cfg)
	if err != nil {
		return nil, nil, err
	}
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	host.CoordinatorAddr = coord.Addr()
	hostResults := make([]*HostResult, cfg.NumHosts)
	hostErrs := make([]error, cfg.NumHosts)
	var wg sync.WaitGroup
	for i := range hostResults {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			hostResults[i], hostErrs[i] = RunHost(runCtx, host)
			if hostErrs[i] != nil {
				cancelRun()
			}
		}(i)
	}
	res, err := coord.RunContext(runCtx)
	cancelRun()
	wg.Wait()
	if outer := ctx.Err(); outer != nil {
		return nil, nil, outer
	}
	if err != nil && !errors.Is(err, context.Canceled) {
		return nil, nil, err
	}
	for i, herr := range hostErrs {
		if herr != nil && !errors.Is(herr, context.Canceled) {
			return nil, nil, fmt.Errorf("cluster: host %d: %w", i, herr)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	return res, hostResults, nil
}
