package registry

import (
	"fmt"

	"repro/internal/exnode"
	"repro/internal/obs"
)

// Directory is the typed exNode face of the quorum client: exNodes in,
// exNodes out, with the XML serialization and validation (including the
// duplicate-extent and overflow checks) on both edges. It satisfies
// core.ExNodeDirectory.
type Directory struct {
	Client *QuorumClient
}

// NewDirectory wraps a quorum client.
func NewDirectory(c *QuorumClient) *Directory { return &Directory{Client: c} }

// PutExNode serializes x and installs it under name at the version one
// past prev (pass prev=0 for a fresh name, or the version a Get
// returned). It returns the installed version.
func (d *Directory) PutExNode(name string, x *exnode.ExNode, prev int64) (int64, error) {
	if err := x.Validate(); err != nil {
		return 0, fmt.Errorf("registry: put %s: %w", name, err)
	}
	blob, err := exnode.Marshal(x)
	if err != nil {
		return 0, err
	}
	version := prev + 1
	if err := d.Client.PutExNode(name, version, blob); err != nil {
		return 0, err
	}
	return version, nil
}

// GetExNode reads the freshest replica-quorum copy of name and parses it
// (Unmarshal validates, so a corrupted directory blob surfaces here as an
// untolerated error rather than as silent bad extents).
func (d *Directory) GetExNode(name string) (*exnode.ExNode, int64, error) {
	blob, version, err := d.Client.GetExNode(name)
	if err != nil {
		return nil, 0, err
	}
	x, err := exnode.Unmarshal(blob)
	if err != nil {
		return nil, 0, fmt.Errorf("registry: get %s: corrupt directory entry: %w", name, err)
	}
	return x, version, nil
}

// ListExNodes lists every stored name with its freshest version.
func (d *Directory) ListExNodes() ([]DirEntry, error) { return d.Client.ListExNodes() }

// Metrics renders registry_client_* samples for a client-side scrape.
func (c *QuorumClient) Metrics() []obs.Metric {
	return []obs.Metric{
		obs.Counter("registry_client_ops_total", "Quorum operations attempted.", c.stats.Ops.Load()),
		obs.Counter("registry_client_replica_failures_total", "Per-replica attempt failures.", c.stats.ReplicaFails.Load()),
		obs.Counter("registry_client_failovers_total", "Ops that succeeded despite replica failures (tolerated).", c.stats.Failovers.Load()),
		obs.Counter("registry_client_stale_retries_total", "Ops retried after a STALE_VIEW view refresh.", c.stats.StaleRetries.Load()),
		obs.Counter("registry_client_majority_lost_total", "Ops failed fast on majority loss (detected).", c.stats.MajorityLost.Load()),
		obs.Counter("registry_client_repairs_total", "Read-repair writes pushed to lagging replicas.", c.stats.Repairs.Load()),
		obs.Counter("registry_client_dials_total", "Connections dialed to replicas, failed dials included.", c.stats.Dials.Load()),
		obs.Counter("registry_client_conn_reused_total", "Replica exchanges that rode a parked session.", c.stats.Reused.Load()),
		obs.Counter("registry_client_query_snapshot_hits_total", "Depot queries answered from the depot-table snapshot, no quorum operation.", c.stats.SnapshotHits.Load()),
	}
}
