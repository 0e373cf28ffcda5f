"""The paper's reported numbers, transcribed from Tables 1-10 of
Jain, Sarawagi & Sen (PVLDB 15(1), 2022), so every benchmark can print
paper-vs-measured rows and EXPERIMENTS.md can diff them."""

DATASETS = ["walmart_amazon", "amazon_google", "dblp_acm", "dblp_scholar", "abt_buy"]

TABLE1 = {
    "walmart_amazon": {"|R|": 2554, "|S|": 22074, "|DUPS|": 1154, "dup_ratio": 2e-5, "|Dtest|": 2049},
    "amazon_google": {"|R|": 1363, "|S|": 3226, "|DUPS|": 1300, "dup_ratio": 3e-4, "|Dtest|": 2293},
    "dblp_acm": {"|R|": 2616, "|S|": 2294, "|DUPS|": 2224, "dup_ratio": 3e-4, "|Dtest|": 2473},
    "dblp_scholar": {"|R|": 2616, "|S|": 64263, "|DUPS|": 5347, "dup_ratio": 3e-5, "|Dtest|": 5742},
    "abt_buy": {"|R|": 1081, "|S|": 1092, "|DUPS|": 1097, "dup_ratio": 1e-3, "|Dtest|": 1916},
    "multilingual": {"|R|": 100_000, "|S|": 100_000, "|DUPS|": 100_000, "dup_ratio": 1e-5, "|Dtest|": 2000},
}

# Table 2: method -> dataset -> (P, R, F1, RT seconds)
TABLE2 = {
    "random_forest": {
        "walmart_amazon": (96.5, 63.0, 76.2, 1.1), "amazon_google": (84.7, 54.6, 66.3, 1.1),
        "dblp_acm": (99.0, 99.1, 99.0, 1.3), "dblp_scholar": (97.2, 96.3, 96.7, 2.7),
        "abt_buy": (83.9, 52.4, 64.4, 0.9),
    },
    "jedai_schema_based": {
        "walmart_amazon": (82.9, 55.2, 66.3, 0.5), "amazon_google": (66.3, 42.3, 51.7, 0.5),
        "dblp_acm": (97.8, 93.2, 95.4, 0.6), "dblp_scholar": (95.3, 77.5, 85.5, 14),
        "abt_buy": (88.4, 43.8, 58.5, 0.4),
    },
    "jedai_schema_agnostic": {
        "walmart_amazon": (59.0, 75.3, 66.2, 5.3), "amazon_google": (57.6, 64.1, 60.7, 4.5),
        "dblp_acm": (99.3, 99.2, 99.3, 1.3), "dblp_scholar": (94.6, 94.9, 94.7, 30),
        "abt_buy": (94.9, 85.6, 90.0, 1.1),
    },
    "sentencebert": {
        "walmart_amazon": (87.1, 43.9, 58.0, 87.6), "amazon_google": (73.2, 38.5, 50.4, 7.9),
        "dblp_acm": (99.3, 94.3, 96.7, 15.5), "dblp_scholar": (97.0, 74.4, 84.2, 255),
        "abt_buy": (87.6, 20.3, 32.6, 42),
    },
    "paired_fixed": {
        "walmart_amazon": (96.6, 71.2, 82.0, 87.6), "amazon_google": (94.9, 52.1, 67.2, 7.9),
        "dblp_acm": (99.6, 93.6, 96.5, 15.5), "dblp_scholar": (98.5, 74.2, 84.6, 255),
        "abt_buy": (97.9, 33.0, 49.3, 42),
    },
    "paired_adapt": {
        "walmart_amazon": (96.3, 61.2, 74.4, 87.6), "amazon_google": (91.6, 58.3, 71.1, 7.9),
        "dblp_acm": (99.7, 98.0, 98.8, 15.5), "dblp_scholar": (98.2, 85.8, 91.6, 255),
        "abt_buy": (97.6, 23.4, 37.7, 42),
    },
    "rules": {
        "walmart_amazon": (93.7, 77.3, 84.7, 9.2), "amazon_google": (85.4, 75.2, 79.9, 5.6),
        "dblp_acm": (99.4, 99.2, 99.3, 15.1), "dblp_scholar": (96.3, 98.0, 97.1, 26),
        "abt_buy": (96.3, 87.2, 91.6, 15),
    },
    "dial": {
        "walmart_amazon": (94.9, 85.2, 89.8, 88.3), "amazon_google": (87.4, 77.4, 82.1, 8.0),
        "dblp_acm": (99.6, 98.6, 99.1, 15.6), "dblp_scholar": (97.5, 96.1, 96.8, 257),
        "abt_buy": (97.8, 87.4, 92.3, 42),
    },
}

# Table 3: multilingual all-pairs P/R/F1 after 10 rounds
TABLE3 = {
    "paired_fixed": (81.2, 56.8, 66.9),
    "paired_adapt": (94.8, 31.6, 47.4),
    "dial": (92.2, 62.3, 74.3),
}

# Table 4: labeled vs random negatives; metric -> negatives -> dataset -> value
TABLE4 = {
    "cand_recall": {
        "labeled": {"walmart_amazon": 80.94, "amazon_google": 76.54, "dblp_acm": 99.02, "dblp_scholar": 93.47, "abt_buy": 66.45},
        "random": {"walmart_amazon": 92.20, "amazon_google": 88.36, "dblp_acm": 98.98, "dblp_scholar": 97.30, "abt_buy": 92.50},
    },
    "test_f1": {
        "labeled": {"walmart_amazon": 75.47, "amazon_google": 67.93, "dblp_acm": 98.75, "dblp_scholar": 93.32, "abt_buy": 69.74},
        "random": {"walmart_amazon": 82.97, "amazon_google": 69.21, "dblp_acm": 98.79, "dblp_scholar": 94.83, "abt_buy": 88.81},
    },
    "all_pairs_f1": {
        "labeled": {"walmart_amazon": 85.36, "amazon_google": 78.78, "dblp_acm": 99.14, "dblp_scholar": 95.49, "abt_buy": 78.12},
        "random": {"walmart_amazon": 89.80, "amazon_google": 82.07, "dblp_acm": 99.13, "dblp_scholar": 96.81, "abt_buy": 92.31},
    },
}

# Table 5: blocker objective; metric -> objective -> dataset -> value
TABLE5 = {
    "test_f1": {
        "classification": {"walmart_amazon": 79.63, "amazon_google": 67.40, "dblp_acm": 98.75, "dblp_scholar": 93.28, "abt_buy": 70.90},
        "triplet": {"walmart_amazon": 80.94, "amazon_google": 68.71, "dblp_acm": 98.79, "dblp_scholar": 94.38, "abt_buy": 87.21},
        "contrastive": {"walmart_amazon": 82.97, "amazon_google": 69.21, "dblp_acm": 98.79, "dblp_scholar": 94.83, "abt_buy": 88.81},
    },
    "all_pairs_f1": {
        "classification": {"walmart_amazon": 84.88, "amazon_google": 79.17, "dblp_acm": 99.05, "dblp_scholar": 95.15, "abt_buy": 76.03},
        "triplet": {"walmart_amazon": 87.72, "amazon_google": 81.04, "dblp_acm": 99.06, "dblp_scholar": 96.48, "abt_buy": 91.95},
        "contrastive": {"walmart_amazon": 89.80, "amazon_google": 82.07, "dblp_acm": 99.13, "dblp_scholar": 96.81, "abt_buy": 92.31},
    },
}

# Table 6: candidate size; metric -> size -> dataset -> value
TABLE6 = {
    "cand_recall": {
        "small": {"walmart_amazon": 55.78, "amazon_google": 79.31, "dblp_acm": 98.98, "dblp_scholar": 92.55, "abt_buy": 71.92},
        "medium": {"walmart_amazon": 92.20, "amazon_google": 88.36, "dblp_acm": 98.98, "dblp_scholar": 97.30, "abt_buy": 86.54},
        "large": {"walmart_amazon": 94.60, "amazon_google": 89.90, "dblp_acm": 99.09, "dblp_scholar": 97.85, "abt_buy": 92.50},
    },
    "all_pairs_f1": {
        "small": {"walmart_amazon": 70.19, "amazon_google": 80.09, "dblp_acm": 99.08, "dblp_scholar": 95.01, "abt_buy": 82.68},
        "medium": {"walmart_amazon": 89.80, "amazon_google": 82.07, "dblp_acm": 99.13, "dblp_scholar": 96.81, "abt_buy": 90.49},
        "large": {"walmart_amazon": 90.80, "amazon_google": 81.41, "dblp_acm": 99.19, "dblp_scholar": 97.00, "abt_buy": 92.31},
    },
}

# Table 7: committee size; metric -> N -> dataset -> value
TABLE7 = {
    "test_f1": {
        1: {"walmart_amazon": 83.16, "amazon_google": 68.62, "dblp_acm": 98.52, "dblp_scholar": 94.38, "abt_buy": 88.56},
        3: {"walmart_amazon": 82.97, "amazon_google": 69.21, "dblp_acm": 98.79, "dblp_scholar": 94.83, "abt_buy": 88.81},
        5: {"walmart_amazon": 83.51, "amazon_google": 70.85, "dblp_acm": 98.71, "dblp_scholar": 94.76, "abt_buy": 88.31},
    },
    "all_pairs_f1": {
        1: {"walmart_amazon": 89.85, "amazon_google": 80.82, "dblp_acm": 99.20, "dblp_scholar": 96.21, "abt_buy": 92.22},
        3: {"walmart_amazon": 89.80, "amazon_google": 82.07, "dblp_acm": 99.13, "dblp_scholar": 96.81, "abt_buy": 92.31},
        5: {"walmart_amazon": 90.19, "amazon_google": 82.14, "dblp_acm": 99.10, "dblp_scholar": 96.66, "abt_buy": 92.79},
    },
}

# Table 8: selection strategies; strategy -> dataset -> all-pairs F1
TABLE8 = {
    "random": {"walmart_amazon": 58.8, "amazon_google": 63.0, "dblp_acm": 97.8, "dblp_scholar": 89.5, "abt_buy": 78.2},
    "greedy": {"walmart_amazon": 78.2, "amazon_google": 74.9, "dblp_acm": 90.0, "dblp_scholar": 77.9, "abt_buy": 79.9},
    "partition2": {"walmart_amazon": 90.7, "amazon_google": 82.2, "dblp_acm": 99.1, "dblp_scholar": 96.8, "abt_buy": 93.2},
    "partition4": {"walmart_amazon": 85.4, "amazon_google": 74.5, "dblp_acm": 99.0, "dblp_scholar": 95.0, "abt_buy": 90.6},
    "qbc": {"walmart_amazon": 79.1, "amazon_google": 75.2, "dblp_acm": 98.8, "dblp_scholar": 94.6, "abt_buy": 83.9},
    "badge": {"walmart_amazon": 90.5, "amazon_google": 82.8, "dblp_acm": 99.1, "dblp_scholar": 96.8, "abt_buy": 92.5},
    "uncertainty": {"walmart_amazon": 89.8, "amazon_google": 82.1, "dblp_acm": 99.1, "dblp_scholar": 96.8, "abt_buy": 92.3},
}

# Table 9: per-operation time (s) in the last AL round; op -> dataset -> s
TABLE9 = {
    "train_matcher": {"walmart_amazon": 109.8, "amazon_google": 71.5, "dblp_acm": 147.0, "dblp_scholar": 110.1, "abt_buy": 161.9},
    "train_committee": {"walmart_amazon": 102.0, "amazon_google": 132.2, "dblp_acm": 141.2, "dblp_scholar": 145.7, "abt_buy": 35.3},
    "index_retrieval": {"walmart_amazon": 1.8, "amazon_google": 0.4, "dblp_acm": 0.5, "dblp_scholar": 4.8, "abt_buy": 0.2},
    "selection": {"walmart_amazon": 73.0, "amazon_google": 6.0, "dblp_acm": 8.9, "dblp_scholar": 221.9, "abt_buy": 34.71},
}

# Table 10: testing time (s, blocking+matching) by committee size
TABLE10 = {
    1: {"walmart_amazon": 87.6, "amazon_google": 7.9, "dblp_acm": 15.5, "dblp_scholar": 254.8, "abt_buy": 41.8},
    3: {"walmart_amazon": 88.3, "amazon_google": 8.0, "dblp_acm": 15.6, "dblp_scholar": 256.7, "abt_buy": 42.0},
    10: {"walmart_amazon": 90.8, "amazon_google": 8.2, "dblp_acm": 15.8, "dblp_scholar": 263.1, "abt_buy": 42.0},
}
