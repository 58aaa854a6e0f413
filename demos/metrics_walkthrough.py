"""The identity metrics on a small hand-built example.

One ground-truth walker is visible for 2 s, hidden for 1.5 s, then visible
again. Tracker A carries the identity across the gap; tracker B re-initializes
with a fresh id. The walkthrough shows how the same frames produce the switch
counts, lost-interval split, occlusion events, and bucketed identity recall.
"""

import numpy as np

from bevtrack.boxes import PixelBox
from bevtrack.evaluation import (
    count_lost,
    count_switches,
    id_recall,
    match_frames,
    occlusion_components,
)
from bevtrack.mot_io import box_records

FPS = 20.0


def build_world():
    gt, vis = [], []
    hyp_keeps, hyp_loses = [], []
    hidden = range(40, 70)  # 1.5 s occlusion
    for f in range(0, 110):
        x = 100.0 + 1.5 * f
        box = PixelBox(x, 200.0, 14.0, 30.0)
        occluded = f in hidden
        vis.append((f, 1, 0.0 if occluded else 1.0))
        gt.append((f, 1, box))  # annotated even while hidden
        if not occluded:
            hyp_keeps.append((f, 7, box))
            hyp_loses.append((f, 7 if f < 40 else 8, box))
    return gt, vis, hyp_keeps, hyp_loses


def report(name, gt, vis, hyp):
    # only visible ground truth takes part in matching
    visible = {(f, i) for f, i, v in vis if v >= 0.25}
    gt_vis = [(f, i, b) for f, i, b in gt if (f, i) in visible]
    # the metrics take arrays: (frame, id, box) for boxes, (frame, id, fraction) for visibility
    matches = match_frames(box_records(gt_vis), box_records(hyp), iou_threshold=0.5)
    idsw, idtr = count_switches(matches)
    short, long_ = count_lost(matches, fps=FPS)
    vis_arrays = tuple(np.array(column) for column in zip(*vis))
    events = occlusion_components(vis_arrays, fps=FPS, threshold=0.25, window=5)
    buckets = id_recall(events, matches, buckets=(0.0, 1.0, 2.0, float("inf")))
    print(f"{name}:")
    print(f"  identity switches {idsw}, transfers {idtr}")
    print(f"  lost intervals: {short} short (under 2s), {long_} long")
    for ev in events:
        print(f"  occlusion: walker {ev.agent_id} hidden frames "
              f"{ev.start_frame}-{ev.end_frame} ({ev.duration_s:.2f}s)")
    for b in buckets:
        if b.total:
            print(f"  recall in {b.lo:.0f}-{b.hi:.0f}s bucket: {b.recovered}/{b.total}")


def main():
    gt, vis, hyp_keeps, hyp_loses = build_world()
    report("tracker A (identity carried across the gap)", gt, vis, hyp_keeps)
    print()
    report("tracker B (fresh id after the gap)", gt, vis, hyp_loses)
    print("\nthe 1.5 s event lands in the 1-2s bucket; tracker B scores a switch")
    print("and zero recall there, tracker A keeps the identity and full recall.")


if __name__ == "__main__":
    main()
