"""``DistribReport`` is a projection of the causal fold, frozen to the
standalone fold it replaced.

``ReferenceDistribReport`` is the distrib analyzer as it was when it
walked the records itself (one loop over spans and their events).  The
production report is now read off :class:`CausalReport`; for any record
list, both must export byte-identical ``to_json()`` documents.  The
generators reach every section — replication lag, gossip sweeps and
merges, partition cuts and heals, dedup by store and site, saga
outcomes and failed steps — with attributes present and absent, and
put saga lifecycle events on non-saga spans too.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.analyze.causal import CausalReport
from repro.obs.analyze.distrib import DistribReport, render_distrib_text

pytestmark = [pytest.mark.obs, pytest.mark.distrib]


class _RefLagStat:
    __slots__ = ("count", "total_ms", "max_ms")

    def __init__(self):
        self.count = 0
        self.total_ms = 0.0
        self.max_ms = 0.0

    def add(self, lag_ms):
        self.count += 1
        self.total_ms += lag_ms
        self.max_ms = max(self.max_ms, lag_ms)

    def to_dict(self):
        mean = self.total_ms / self.count if self.count else 0.0
        return {
            "count": self.count,
            "mean_ms": round(mean, 3),
            "max_ms": round(self.max_ms, 3),
        }


def _bump(table, key):
    table[key] = table.get(key, 0) + 1


class ReferenceDistribReport:
    """The standalone distrib fold, kept verbatim as the oracle."""

    def __init__(self):
        self.replication = {}
        self.gossip = {}
        self.partitions = {}
        self.dedup_by_store = {}
        self.dedup_by_site = {}
        self.sagas = {}
        self.saga_failures = {}

    @classmethod
    def from_records(cls, records):
        report = cls()
        for record in records:
            name = record.get("name") or ""
            attributes = record.get("attributes") or {}
            if name.startswith("replicate:"):
                table = str(attributes.get("table", name.split(":", 1)[1]))
                region = str(attributes.get("region", "unknown"))
                lag = attributes.get("lag_ms")
                stat = report.replication.setdefault(
                    f"{table}/{region}", _RefLagStat()
                )
                stat.add(float(lag) if lag is not None else 0.0)
            elif name.startswith("gossip:"):
                table = str(attributes.get("table", name.split(":", 1)[1]))
                entry = report.gossip.setdefault(
                    table, {"sweeps": 0, "merges": 0}
                )
                entry["sweeps"] += 1
                entry["merges"] += int(attributes.get("merges", 0) or 0)
            elif name.startswith("partition:"):
                pair = name.split(":", 1)[1]
                entry = report.partitions.setdefault(
                    pair, {"cuts": 0, "heals": 0}
                )
                if attributes.get("event") == "heal":
                    entry["heals"] += 1
                else:
                    entry["cuts"] += 1
            elif name.startswith("saga:"):
                saga = str(attributes.get("saga", name.split(":", 1)[1]))
                report.sagas.setdefault(saga, {})
            for event in record.get("events") or []:
                event_name = event.get("name")
                event_attrs = event.get("attributes") or {}
                if event_name == "distrib.dedup":
                    _bump(
                        report.dedup_by_store,
                        str(event_attrs.get("store", "unknown")),
                    )
                    _bump(
                        report.dedup_by_site,
                        str(event_attrs.get("site", "unknown")),
                    )
                elif event_name in ("saga.completed", "saga.compensated"):
                    saga = str(event_attrs.get("saga", "unknown"))
                    status = event_name.split(".", 1)[1]
                    _bump(report.sagas.setdefault(saga, {}), status)
                elif event_name == "saga.step.failed":
                    _bump(
                        report.saga_failures,
                        str(event_attrs.get("saga", "unknown")),
                    )
        return report

    def to_dict(self):
        return {
            "replication_total": sum(
                stat.count for stat in self.replication.values()
            ),
            "replication": {
                key: stat.to_dict()
                for key, stat in sorted(self.replication.items())
            },
            "gossip": {
                table: dict(entry)
                for table, entry in sorted(self.gossip.items())
            },
            "partitions": {
                pair: dict(entry)
                for pair, entry in sorted(self.partitions.items())
            },
            "dedup_total": sum(self.dedup_by_store.values()),
            "dedup_by_store": dict(sorted(self.dedup_by_store.items())),
            "dedup_by_site": dict(sorted(self.dedup_by_site.items())),
            "sagas": {
                saga: dict(sorted(statuses.items()))
                for saga, statuses in sorted(self.sagas.items())
            },
            "saga_failures": dict(sorted(self.saga_failures.items())),
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


# -- generators ---------------------------------------------------------------

TABLES = st.sampled_from(["reports", "cache:location", "t"])
REGIONS = st.sampled_from(["ap-south", "eu-west", "us-east"])
SAGAS = st.sampled_from(["report", "checkin"])
LAG = st.one_of(
    st.none(),
    st.integers(min_value=0, max_value=2_000),
    st.floats(min_value=0.0, max_value=2_000.0, allow_nan=False),
)


def maybe(**fields):
    """A dict holding any subset of ``fields`` (each value a strategy)."""
    return st.fixed_dictionaries(
        {}, optional={key: value for key, value in fields.items()}
    )


EVENT = st.one_of(
    st.fixed_dictionaries(
        {"name": st.just("distrib.dedup")},
        optional={"attributes": maybe(
            store=st.sampled_from(["network", "sms"]),
            site=st.sampled_from(["network.request", "sms.submit"]),
            chain=st.sampled_from(["Http:post#1", "Sms:send#2"]),
            region=REGIONS,
        )},
    ),
    st.fixed_dictionaries(
        {"name": st.sampled_from(
            ["saga.completed", "saga.compensated", "saga.step.failed"]
        )},
        optional={"attributes": maybe(saga=SAGAS, steps=st.integers(0, 3))},
    ),
    st.fixed_dictionaries(
        {"name": st.just("gossip.merge"),
         "t_virtual_ms": st.floats(0.0, 1_000.0)},
        optional={"attributes": maybe(
            table=TABLES, region=REGIONS, key=st.sampled_from(["k", "j"]),
            version=st.sampled_from(["1@ap-south", "2@eu-west"]),
        )},
    ),
    st.fixed_dictionaries({"name": st.sampled_from(["retry.attempt", "x"])}),
)

NAME_AND_ATTRIBUTES = st.one_of(
    st.tuples(
        st.builds(lambda t: f"replicate:{t}", TABLES),
        maybe(table=TABLES, region=REGIONS, lag_ms=LAG,
              key=st.sampled_from(["k", "j"]),
              version=st.sampled_from(["1@ap-south", "2@eu-west"])),
    ),
    st.tuples(
        st.builds(lambda t: f"gossip:{t}", TABLES),
        maybe(table=TABLES,
              merges=st.one_of(st.none(), st.integers(0, 5))),
    ),
    st.tuples(
        st.sampled_from(["partition:ap-south|eu-west", "partition:a|b"]),
        maybe(event=st.sampled_from(["cut", "heal", "other"])),
    ),
    st.tuples(
        st.builds(lambda s: f"saga:{s}", SAGAS),
        maybe(saga=SAGAS, saga_id=st.integers(1, 5), region=REGIONS),
    ),
    st.tuples(
        st.sampled_from(["write:t", "write:reports"]),
        maybe(table=TABLES, region=REGIONS, key=st.sampled_from(["k", "j"]),
              version=st.sampled_from(["1@ap-south", "2@eu-west"])),
    ),
    st.tuples(
        st.sampled_from(
            ["resilience:post", "saga.step:post", "invalidate:c", "flush:c",
             "notify.drain", ""]
        ),
        maybe(platform=st.just("android"), region=REGIONS),
    ),
)


@st.composite
def record_lists(draw):
    count = draw(st.integers(min_value=0, max_value=14))
    records = []
    for span_id in range(1, count + 1):
        name, attributes = draw(NAME_AND_ATTRIBUTES)
        record = {"trace_id": 1, "span_id": span_id}
        if name or draw(st.booleans()):
            record["name"] = name
        if span_id > 1 and draw(st.booleans()):
            record["parent_id"] = draw(st.integers(1, span_id - 1))
        start = draw(st.floats(0.0, 1_000.0))
        record["start_virtual_ms"] = start
        record["end_virtual_ms"] = start + draw(st.floats(0.0, 500.0))
        if attributes or draw(st.booleans()):
            record["attributes"] = attributes
        if draw(st.booleans()):
            record["events"] = draw(st.lists(EVENT, max_size=4))
        records.append(record)
    return records


# -- the equivalence ------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(record_lists())
def test_projection_matches_the_standalone_fold(records):
    expected = ReferenceDistribReport.from_records(records).to_json()
    assert DistribReport.from_records(records).to_json() == expected
    causal = CausalReport.from_records(records)
    assert DistribReport(causal).to_json() == expected


def test_every_section_non_empty():
    records = [
        {"trace_id": 1, "span_id": 1, "name": "replicate:reports",
         "attributes": {"region": "eu-west", "lag_ms": 250}},
        {"trace_id": 1, "span_id": 2, "name": "gossip:reports",
         "attributes": {"merges": 2}},
        {"trace_id": 1, "span_id": 3, "name": "partition:a|b",
         "attributes": {"event": "heal"}},
        {"trace_id": 1, "span_id": 4, "name": "partition:a|b"},
        {"trace_id": 1, "span_id": 5, "name": "resilience:post", "events": [
            {"name": "distrib.dedup", "attributes": {"store": "network"}},
            {"name": "saga.completed", "attributes": {"saga": "report"}},
            {"name": "saga.step.failed", "attributes": {"saga": "checkin"}},
            {"name": "saga.compensated"},
        ]},
    ]
    report = DistribReport.from_records(records)
    assert report.to_json() == ReferenceDistribReport.from_records(
        records
    ).to_json()
    data = report.to_dict()
    assert data["replication"] == {
        "reports/eu-west": {"count": 1, "mean_ms": 250.0, "max_ms": 250.0}
    }
    assert data["gossip"] == {"reports": {"sweeps": 1, "merges": 2}}
    assert data["partitions"] == {"a|b": {"cuts": 1, "heals": 1}}
    assert data["dedup_by_store"] == {"network": 1}
    assert data["dedup_by_site"] == {"unknown": 1}
    # Outcomes come from lifecycle events on any span, keyed by the
    # event's own ``saga`` attribute — not from the saga span trees.
    assert data["sagas"] == {"report": {"completed": 1},
                             "unknown": {"compensated": 1}}
    assert data["saga_failures"] == {"checkin": 1}
    text = render_distrib_text(report)
    assert "1 replication applies, 1 dedup suppressions, 2 saga names" in text
