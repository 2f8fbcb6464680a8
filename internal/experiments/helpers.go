package experiments

import (
	"cni/internal/cluster"
	"cni/internal/config"
	"cni/internal/msgpass"
)

// Experiment points run known-good configs, so a construction failure
// is a programming error; the harness converts panics into errors.

func mustCluster(cfg *config.Config, n int) *cluster.Cluster {
	c, err := cluster.New(cfg, n, nil)
	if err != nil {
		panic(err)
	}
	return c
}

func mustFabric(cfg *config.Config, n int) *msgpass.Fabric {
	f, err := msgpass.NewFabric(cfg, n)
	if err != nil {
		panic(err)
	}
	return f
}
