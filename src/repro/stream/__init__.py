"""Dynamic graph stream model: updates, orderings, the file reader."""

from .file_io import (
    load_stream_file,
    read_stream,
    save_stream_file,
    write_stream,
)
from .generators import (
    adversarial_for_certificate,
    insert_delete_reinsert,
    insert_only,
    random_dynamic_stream,
    with_churn,
)
from .quarantine import POLICIES, BadUpdate, Quarantine
from .updates import DELETE, INSERT, EdgeUpdate, StreamValidator, materialize

__all__ = [
    "BadUpdate",
    "Quarantine",
    "POLICIES",
    "EdgeUpdate",
    "StreamValidator",
    "materialize",
    "INSERT",
    "DELETE",
    "insert_only",
    "with_churn",
    "insert_delete_reinsert",
    "adversarial_for_certificate",
    "random_dynamic_stream",
    "read_stream",
    "write_stream",
    "load_stream_file",
    "save_stream_file",
]
