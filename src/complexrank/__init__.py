"""Complex-number frequency ranks for nominal data.

Nominal values are coded as complex numbers whose modulus reflects how
often the value occurs and whose phase separates values that tie on
frequency, using roots of unity. The coded columns live in a complex
coordinate space with the usual Hermitian inner product, which makes
mixed numeric and nominal tables clusterable with plain k-means.
"""

from .cluster import (
    ClusteringResult,
    ExperimentReport,
    bucket_accuracies,
    derive_run_seed,
    kmeans,
    purity_accuracy,
    run_experiment,
    splitmix64,
)
from .coding import (
    CodedColumn,
    CodedMatrix,
    ColumnSource,
    ComplexRank,
    EncodeMode,
    NominalCodebook,
    adhoc_codebook,
    base_rank,
    build_codebook,
    coded_matrix_from_json_dict,
    coded_matrix_to_json,
    coded_matrix_to_json_dict,
    encode_dataset,
    root_of_unity,
    standardize,
)
from .dataset import (
    AttributeSchema,
    Column,
    DataError,
    Dataset,
    Role,
    load_cars,
    parse_csv,
)
from .ranking import ranks
from .space import distance, inner_product, norm, real_expansion

__version__ = "0.1.0"

__all__ = [
    "AttributeSchema",
    "ClusteringResult",
    "CodedColumn",
    "CodedMatrix",
    "Column",
    "ColumnSource",
    "ComplexRank",
    "DataError",
    "Dataset",
    "EncodeMode",
    "ExperimentReport",
    "NominalCodebook",
    "Role",
    "adhoc_codebook",
    "base_rank",
    "bucket_accuracies",
    "build_codebook",
    "coded_matrix_from_json_dict",
    "coded_matrix_to_json",
    "coded_matrix_to_json_dict",
    "derive_run_seed",
    "distance",
    "encode_dataset",
    "inner_product",
    "kmeans",
    "load_cars",
    "norm",
    "parse_csv",
    "purity_accuracy",
    "ranks",
    "real_expansion",
    "root_of_unity",
    "run_experiment",
    "splitmix64",
    "standardize",
]
