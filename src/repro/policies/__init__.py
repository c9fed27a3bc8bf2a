"""Work-sharing policies and the runtime coordinator (Section 8).

Three policies — :class:`AlwaysShare`, :class:`NeverShare`,
:class:`ModelGuidedPolicy` — plug into the
:class:`SharingCoordinator`, which batches same-operation queries into
merged groups the way Cordoba merges packets in stage queues.
"""

from repro.policies.always import AlwaysShare
from repro.policies.base import SharingPolicy
from repro.policies.coordinator import SharingCoordinator
from repro.policies.model_guided import ModelGuidedPolicy
from repro.policies.never import NeverShare
from repro.policies.online_model import OnlineModelGuidedPolicy
from repro.policies.resource_outlook import ResourceOutlook, ResourceProfile

__all__ = [
    "AlwaysShare",
    "NeverShare",
    "ModelGuidedPolicy",
    "OnlineModelGuidedPolicy",
    "ResourceOutlook",
    "ResourceProfile",
    "SharingPolicy",
    "SharingCoordinator",
]
