"""IXP substrate: members, community dictionaries, schemes, profiles."""

from .dictionary import (
    SOURCE_BOTH,
    SOURCE_RS_CONFIG,
    SOURCE_WEBSITE,
    CommunityDictionary,
    CommunityEntry,
    CommunityRule,
    ExtendedCommunityRule,
    LargeCommunityRule,
    Semantics,
    rule_from_dict,
)
from .member import Member, MemberRole
from .profiles import (
    ALL_IXPS,
    CategoryUsage,
    LARGE_FOUR,
    PROFILES,
    IxpProfile,
    all_profiles,
    get_profile,
    large_profiles,
)
from .schemes import dictionary_for, dictionary_pair_for, spec_for
from .taxonomy import ActionCategory, CommunityRole, Target, TargetKind

__all__ = [
    "Member", "MemberRole",
    "CommunityDictionary", "CommunityEntry", "CommunityRule",
    "LargeCommunityRule", "ExtendedCommunityRule", "Semantics", "rule_from_dict",
    "SOURCE_RS_CONFIG", "SOURCE_WEBSITE", "SOURCE_BOTH",
    "ActionCategory", "CommunityRole", "Target", "TargetKind",
    "IxpProfile", "CategoryUsage", "PROFILES", "ALL_IXPS", "LARGE_FOUR",
    "get_profile", "all_profiles", "large_profiles",
    "dictionary_for", "dictionary_pair_for", "spec_for",
]
