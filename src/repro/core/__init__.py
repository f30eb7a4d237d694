"""Core package: the paper's contribution.

Everything needed to (a) extract AS relationships from BGP Communities
and Local Preference, (b) detect hybrid IPv4/IPv6 relationships, and
(c) assess their impact through valley analysis and customer-tree
metrics.
"""

from repro.core.annotation import ToRAnnotation, ValleyFreeIndex, valley_free_distances
from repro.core.combined_inference import (
    CombinedInference,
    CombinedInferenceResult,
    CoverageReport,
)
from repro.core.communities_inference import (
    CommunitiesInference,
    CommunitiesInferenceResult,
    RelationshipVote,
)
from repro.core.correction import (
    CorrectionExperiment,
    CorrectionSeries,
    CorrectionStep,
    plane_agnostic_annotation,
)
from repro.core.customer_tree import (
    CustomerTree,
    CustomerTreeUnion,
    PathLengthMetrics,
    customer_tree,
    customer_tree_union_metrics,
    union_of_customer_trees,
    valley_free_path_metrics,
)
from repro.core.hybrid import (
    HybridDetectionReport,
    HybridDetector,
    HybridLink,
    HybridValidation,
    detect_hybrid_links,
)
from repro.core.locpref_inference import (
    LocPrefInference,
    LocPrefInferenceResult,
    LocPrefMapping,
)
from repro.core.observations import ObservedRoute, clean_raw_path
from repro.core.relationships import (
    AFI,
    DualStackRelationship,
    HybridType,
    Link,
    Relationship,
    RelationshipRecord,
    RelationshipSource,
    classify_hybrid,
    majority_relationship,
    orient_relationship,
)
from repro.core.store import ObservationStore
from repro.core.valley import (
    PathValidation,
    PathValidity,
    ValleyAnalysisReport,
    ValleyAnalyzer,
    ValleyPath,
    ValleyReason,
    validate_path,
)
from repro.core.visibility import VisibilityIndex, build_visibility_index

__all__ = [
    "ToRAnnotation",
    "ValleyFreeIndex",
    "valley_free_distances",
    "CombinedInference",
    "CombinedInferenceResult",
    "CoverageReport",
    "CommunitiesInference",
    "CommunitiesInferenceResult",
    "RelationshipVote",
    "CorrectionExperiment",
    "CorrectionSeries",
    "CorrectionStep",
    "plane_agnostic_annotation",
    "CustomerTree",
    "CustomerTreeUnion",
    "PathLengthMetrics",
    "customer_tree",
    "customer_tree_union_metrics",
    "union_of_customer_trees",
    "valley_free_path_metrics",
    "HybridDetectionReport",
    "HybridDetector",
    "HybridLink",
    "HybridValidation",
    "detect_hybrid_links",
    "LocPrefInference",
    "LocPrefInferenceResult",
    "LocPrefMapping",
    "ObservedRoute",
    "clean_raw_path",
    "AFI",
    "DualStackRelationship",
    "HybridType",
    "Link",
    "Relationship",
    "RelationshipRecord",
    "RelationshipSource",
    "classify_hybrid",
    "majority_relationship",
    "orient_relationship",
    "ObservationStore",
    "PathValidation",
    "PathValidity",
    "ValleyAnalysisReport",
    "ValleyAnalyzer",
    "ValleyPath",
    "ValleyReason",
    "validate_path",
    "VisibilityIndex",
    "build_visibility_index",
]
