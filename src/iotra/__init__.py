"""Desk-scale IoT edge-cloud reference system.

Modules: infomodel (vocabulary + payload codec), edge (gateway data
plane), msgbus (pub/sub broker), cloudgw (ingress boundary), twins
(digital twin service), streams (real-time pipeline), tsdb (time-series
store), controlplane (registry, security, incidents), platform (the
cloud ingest path over those services), harness (simulated fleet,
faults, scenario runner, CLI).
"""

__version__ = "0.1.0"
