"""Campaign reports: deterministic, machine-readable, replayable.

A report is campaign metadata plus an ordered record stream and a summary
footer.  Serialization is byte-stable: fixed top-level key order, one compact
record per line, sorted keys inside every object, and no wall-clock content.
The whole report is serialized and written once, after the campaign
completes; an interrupted campaign leaves no report.
"""

from __future__ import annotations

import csv
import io as _io
import json
from dataclasses import dataclass

FORMAT_VERSION = 1

#: One compact, key-sorted encoder for every record line; ``json.dumps`` with
#: these options would build a new encoder per record.
_RECORD_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


@dataclass
class ExperimentReport:
    campaign: str
    params: dict
    records: list[dict]
    summary: dict
    version: int = FORMAT_VERSION

    @property
    def holds(self) -> bool:
        return bool(self.summary.get("holds"))

    @property
    def counterexamples(self) -> list:
        return list(self.summary.get("counterexamples", []))

    def to_json(self) -> str:
        out = ["{"]
        out.append(f'"campaign": {json.dumps(self.campaign)},')
        out.append(f'"params": {json.dumps(self.params, sort_keys=True)},')
        out.append(f'"version": {self.version},')
        out.append('"records": [')
        body = ",\n".join(map(_RECORD_ENCODER.encode, self.records))
        if body:
            out.append(body)
        out.append("],")
        out.append(f'"summary": {json.dumps(self.summary, sort_keys=True)}')
        out.append("}")
        return "\n".join(out) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ExperimentReport":
        obj = json.loads(text)
        return cls(
            campaign=obj["campaign"],
            params=obj["params"],
            records=obj["records"],
            summary=obj["summary"],
            version=obj.get("version", FORMAT_VERSION),
        )

    def to_csv(self) -> str:
        """Flattened record rows; summary appended as '#'-prefixed lines."""
        columns = sorted({key for rec in self.records for key in rec})
        buf = _io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for rec in self.records:
            writer.writerow([_cell(rec.get(col)) for col in columns])
        buf.write(f"# campaign: {self.campaign}\n")
        buf.write(f"# version: {self.version}\n")
        buf.write(f"# params: {json.dumps(self.params, sort_keys=True)}\n")
        buf.write(f"# summary: {json.dumps(self.summary, sort_keys=True)}\n")
        return buf.getvalue()


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (dict, list, tuple, bool)):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return str(value)

