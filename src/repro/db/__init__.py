"""Embedded relational database (the paper's MySQL stand-in).

A small but real database engine, built from scratch:

* typed heap tables with schema validation (:mod:`repro.db.table`),
* secondary hash indexes for equality lookups (:mod:`repro.db.index`),
* a write-ahead log with CRC-framed records and crash recovery
  (:mod:`repro.db.wal`),
* transactions with rollback (:mod:`repro.db.engine`),
* one SQL statement, the keyed ``SELECT * | cols FROM t [WHERE col =
  literal]`` (:mod:`repro.db.sql`); everything else is a method call,
* and the :class:`~repro.db.dbmanager.DbManager` facade the paper's
  ``dataIO`` package provided: store/retrieve executables as BLOBs,
  with the I/O and CPU costs of each operation over their compressed
  size charged to a simulated host.

The engine itself is *real software* operating on real bytes; only the
time each operation takes is simulated (by ``DbManager``), which is what
lets the scenario figures show DB-induced CPU and disk peaks.
"""

from repro.db.dbmanager import DbManager
from repro.db.engine import Database
from repro.db.sql import execute_sql
from repro.db.table import Column, Schema

__all__ = ["Database", "DbManager", "execute_sql", "Column", "Schema"]
