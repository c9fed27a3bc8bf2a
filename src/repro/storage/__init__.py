"""In-memory columnar storage substrate.

The paper's workloads are memory-resident (1 GB TPC-H on a 16 GB
machine); this package provides the equivalent: columnar
:class:`~repro.storage.table.Table` objects grouped in a
:class:`~repro.storage.catalog.Catalog`, scanned as tuple
:class:`~repro.storage.page.Page` batches.

For workloads that do *not* fit (or whose operators must not assume
they do), :mod:`repro.storage.buffer` adds the memory-governed layer:
a page-granular :class:`~repro.storage.buffer.BufferPool` with
pluggable eviction (LRU / CLOCK / MRU / scan-aware) fronting table
pages — cold reads charge the cost model's ``io_page`` — plus
:class:`~repro.storage.buffer.SpillFile` runs used by spilling
operators under :class:`~repro.engine.memory.MemoryBroker` grants.
:mod:`repro.storage.shared_scan` layers cooperative (elevator) scan
sharing with async prefetch on top of the pool.
"""

from repro.storage.buffer import (
    BufferPool,
    BufferStats,
    ClockPolicy,
    EvictionPolicy,
    LRUPolicy,
    MRUPolicy,
    ScanAwarePolicy,
    SpillFile,
    make_policy,
    spill_page_key,
    table_page_key,
)
from repro.storage.catalog import Catalog
from repro.storage.shared_scan import (
    PrefetchFIFO,
    ScanShareManager,
    ScanTicket,
    TableScanStats,
)
from repro.storage.spill_cursor import SpillCursor
from repro.storage.tenant_pool import (
    SHARED_PARTITION,
    TenantPartitionedPool,
    TenantPartitionPolicy,
    TenantShare,
)
from repro.storage.io import load_catalog, load_table, save_catalog, save_table
from repro.storage.page import DEFAULT_PAGE_ROWS, Page, paginate
from repro.storage.schema import (
    Column,
    DataType,
    Schema,
    date_to_ordinal,
    ordinal_to_date,
)
from repro.storage.table import Table

__all__ = [
    "BufferPool",
    "BufferStats",
    "ClockPolicy",
    "EvictionPolicy",
    "LRUPolicy",
    "MRUPolicy",
    "ScanAwarePolicy",
    "PrefetchFIFO",
    "ScanShareManager",
    "ScanTicket",
    "TableScanStats",
    "SpillCursor",
    "SpillFile",
    "SHARED_PARTITION",
    "TenantPartitionedPool",
    "TenantPartitionPolicy",
    "TenantShare",
    "make_policy",
    "spill_page_key",
    "table_page_key",
    "Catalog",
    "DEFAULT_PAGE_ROWS",
    "Page",
    "paginate",
    "Column",
    "DataType",
    "Schema",
    "date_to_ordinal",
    "ordinal_to_date",
    "Table",
    "save_catalog",
    "load_catalog",
    "save_table",
    "load_table",
]
