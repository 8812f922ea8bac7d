"""Campaign reports: deterministic, machine-readable, replayable.

A report is campaign metadata plus an ordered record stream and a summary
footer.  Serialization is byte-stable: fixed top-level key order, one compact
record per line, sorted keys inside every object, and no wall-clock content.

A campaign is a stream: a generator that yields its name and params as one
pair, then every record in order, and returns its summary.
:func:`write_json` writes the JSON text of a stream piece by piece as the
records arrive, so a writer holds neither the records nor the text;
:meth:`ExperimentReport.to_json` joins the same pieces once.  CSV is built in
memory, because its header is the union of every record's keys.
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


def _records(stream, summary: list):
    """Yield the records of ``stream``, whose header is read, then append the
    summary it returns to ``summary``."""
    summary.append((yield from stream))


def write_json(stream, write, version: int = FORMAT_VERSION) -> dict:
    """Pass the JSON report of ``stream`` to ``write`` in pieces, each record
    as it arrives, and return the stream's summary."""
    campaign, params = next(stream)
    write(
        f'{{\n"campaign": {json.dumps(campaign)},\n'
        f'"params": {json.dumps(params, sort_keys=True)},\n'
        f'"version": {version},\n"records": [\n'
    )
    encode = _RECORD_ENCODER.encode
    summary: list = []
    sep = ""
    for record in _records(stream, summary):
        write(sep)
        write(encode(record))
        sep = ",\n"
    # sep[1:] is the newline that ends the last record, if there is one
    write(f'{sep[1:]}],\n"summary": {json.dumps(summary[0], sort_keys=True)}\n}}\n')
    return summary[0]


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

    @classmethod
    def from_stream(cls, stream) -> "ExperimentReport":
        """The report of a campaign stream, its records collected in order."""
        campaign, params = next(stream)
        summary: list = []
        records = list(_records(stream, summary))
        return cls(campaign, params, records, summary[0])

    def _stream(self):
        yield self.campaign, self.params
        yield from self.records
        return self.summary

    def to_json(self) -> str:
        pieces: list[str] = []
        write_json(self._stream(), pieces.append, self.version)
        return "".join(pieces)

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
