"""GCN model zoo: the paper's base model and every deep/attention baseline."""

from repro.models.appnp import APPNP
from repro.models.base import GraphModel, softmax_rows
from repro.models.chebnet import ChebConvolution, ChebNet, rescaled_laplacian
from repro.models.densegcn import DenseGCN, shrinking_widths
from repro.models.dgcn import DGCN, ppmi_matrix
from repro.models.gat import GAT
from repro.models.gcn import GCN
from repro.models.gpnn import GPNN, partition_graph, split_propagation_matrices
from repro.models.graphsage import GraphSAGE
from repro.models.lgcn import LGCN, k_largest_neighbor_features
from repro.models.jknet import JKNet
from repro.models.mlp import MLP
from repro.models.ngcn import NGCN
from repro.models.resgcn import ResGCN
from repro.models.sgc import SGC

__all__ = [
    "GraphModel",
    "softmax_rows",
    "GCN",
    "ResGCN",
    "DenseGCN",
    "JKNet",
    "GAT",
    "APPNP",
    "MLP",
    "SGC",
    "GraphSAGE",
    "NGCN",
    "DGCN",
    "LGCN",
    "GPNN",
    "partition_graph",
    "split_propagation_matrices",
    "k_largest_neighbor_features",
    "ppmi_matrix",
    "ChebNet",
    "ChebConvolution",
    "rescaled_laplacian",
    "shrinking_widths",
]
