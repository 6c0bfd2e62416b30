"""Detection algorithms (substrate S7): the paper's contribution."""

from repro.detection.api import definitely, detect, possibly
from repro.detection.cooper_marzullo import (
    definitely_enumerate,
    possibly_enumerate,
)
from repro.detection.definitely_conjunctive import (
    definitely_conjunctive,
    false_intervals,
)
from repro.detection.cpdsc import (
    detect_receive_ordered,
    detect_send_ordered,
    is_receive_ordered,
    is_send_ordered,
    meta_process_order,
)
from repro.detection.garg_waldecker import (
    SelectionScan,
    detect_conjunctive,
    find_consistent_selection,
    selection_witness,
)
from repro.detection.relational_sum import (
    definitely_sum,
    definitely_sum_eq_unit,
    possibly_sum,
    possibly_sum_eq_exact,
    possibly_sum_eq_unit,
    witness_cut_with_sum,
)
from repro.detection.result import DetectionResult
from repro.detection.singular_cnf import (
    clause_true_events,
    clause_true_events_on,
    detect_by_chain_choice,
    detect_by_process_choice,
    detect_cnf_by_literal_choice,
    detect_singular,
    detect_special_case,
)
from repro.detection.stable import detect_stable, is_stable
from repro.detection.witnesses import count_witnesses, iter_witnesses
from repro.detection.symmetric_detect import (
    definitely_symmetric,
    possibly_symmetric,
)

__all__ = [
    "DetectionResult",
    "SelectionScan",
    "clause_true_events",
    "count_witnesses",
    "clause_true_events_on",
    "definitely",
    "definitely_conjunctive",
    "definitely_enumerate",
    "definitely_sum",
    "definitely_sum_eq_unit",
    "definitely_symmetric",
    "detect",
    "detect_by_chain_choice",
    "detect_by_process_choice",
    "detect_cnf_by_literal_choice",
    "detect_conjunctive",
    "detect_receive_ordered",
    "detect_send_ordered",
    "detect_singular",
    "detect_special_case",
    "detect_stable",
    "false_intervals",
    "find_consistent_selection",
    "is_receive_ordered",
    "is_send_ordered",
    "is_stable",
    "iter_witnesses",
    "meta_process_order",
    "possibly",
    "possibly_enumerate",
    "possibly_sum",
    "possibly_sum_eq_exact",
    "possibly_sum_eq_unit",
    "possibly_symmetric",
    "selection_witness",
    "witness_cut_with_sum",
]
