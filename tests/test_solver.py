"""Certified polytope projection: frozen instances, grid cross-checks, budgets."""
import math
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from banachproj import (
    CERT_TOL,
    Ball,
    CoordinateSubspace,
    LpSpace,
    PolytopeH,
    PolytopeV,
    PositiveCone,
    Ray,
    Segment,
    Singleton,
    classify_point,
    contains,
    descriptor_to_json,
    directional_derivative,
    project,
    project_with_certificate,
    support,
)
from banachproj import sets as sets_mod
from banachproj import solver as solver_mod
from banachproj.solver import _dual_gap, _project_hrep, _support_gap
from oracles import grid_argmin, grid_project, highs_support, lp_norm, probe_gap

SIMPLEX = PolytopeV(vertices=np.eye(3))

# a box with three oblique cuts at p = 4 on which the SLSQP solver once
# spent its whole 100,000-iteration budget (264 s) and stayed uncertified
CUT_BOX_R = np.array([
    [0.005421595461809626, 0.1472338363440977, 0.06657167416449997,
     -0.044913226513263474, -0.12869032588269513, -0.9773856035594946],
    [0.568161636159734, -0.05959233129643916, 0.41221087612029444,
     -0.546969565445949, 0.1801418041409418, -0.4148451852580735],
    [-0.517856697448416, 0.09711081529999846, 0.3986863364416245,
     0.5316903867615347, 0.5171939449423807, -0.11514726021340078],
])
CUT_BOX = PolytopeH(normals=np.vstack([np.eye(6), -np.eye(6), CUT_BOX_R]), offsets=[
    0.6873118512044054, 0.44715073223626667, 1.076024965284543, 0.5541085989392737,
    1.257843706518815, 0.9643193019952385, 0.9600840916999706, 0.4636155944773426,
    1.4730090684407784, 0.5804104376808388, 1.1385779482571063, 0.5218553641704176,
    0.22172917519762203, 0.6919148542472096, 0.7617921827335532])
CUT_BOX_X = np.array([0.5572889494886955, -0.3445596738419935, 2.066836084627908,
                      -4.618991052248645, 2.7838787469832997, -1.4996233235552492])


# one p = 1.2 projection of corpus B (PR 28's default_rng(7) corpus), a
# box cut by four rows: Newton's weights leave the weak-duality bound at
# -923, so the support LP (-3.2) and simplicial decomposition finish it,
# at the vertex where rows 4 and 6 meet, the parent's point to the last bit
FALLBACK_P = 1.2
FALLBACK = PolytopeH(normals=np.vstack([np.eye(2), -np.eye(2), [
    [-0.9203315025983154, -0.39113926589531606], [-0.9937772624612621, -0.11138560326631033],
    [0.9977421129143278, -0.06716156726322522], [0.6402188888886222, 0.7681925372653772]]]),
    offsets=[0.6175111562261242, 0.6528314576480834, 1.109892410847337, 1.2792483677207405,
             0.341149179269687, 0.31736965352299434, 0.17885005240123464, 0.3404227824848916])
FALLBACK_X = np.array([-17.60406556872011, -15.83438172746199])
FALLBACK_POINT = np.array([0.10406236726739333, -1.117047282636568])


def _box_cuts(p, hi, lo, cuts, offsets, x):
    """(p, C, x) for the axis box [lo, hi] cut by unit rows."""
    n = len(hi)
    C = PolytopeH(normals=np.vstack([np.eye(n), -np.eye(n), cuts]),
                  offsets=np.concatenate([hi, -np.asarray(lo), offsets]))
    return p, C, np.array(x)


# two projections in R^12, at p = 8 and p = 20, of corpus B' (default_rng(7):
# for each p in {1.05, 1.2, 1.5, 2, 3, 4, 8, 20} and n in {2, 3, 5, 8, 12},
# six axis boxes cut by 1 to 2n unit rows at offsets in [0.1, 0.8], two
# points each, 480 in all): the weak-duality bound leaves them uncertified,
# 5,000 Frank–Wolfe steps never certified them, and simplicial
# decomposition certifies them in 170 and 477 Newton steps
CUTS_P8 = _box_cuts(8.0, hi=[
    1.190568969062794, 1.3725804012075844, 1.1897380738104448, 0.8569475076262307,
    1.2932320097074232, 1.0537309663454644, 0.6436633916606376, 0.3356121842627059,
    1.2164871188423947, 0.32429450117764147, 1.2472991709256758, 1.2361949278919369], lo=[
    -1.0492194973662063, -1.30906569740419, -0.4203517477893506, -0.4045277274442587,
    -1.4356447383616728, -1.2388714998677797, -1.0067060637457235, -0.756520522937488,
    -0.503769854790604, -0.42229888994321363, -0.3806767704551113, -0.8101321220307505], cuts=[
    [-0.02981554823717896, -0.0070580972735408845, -0.4317531859806291, -0.27866973760371766,
     0.3602247836750258, -0.35812674438473324, -0.47408393017288936, -0.3235693168205683,
     -0.20722840390604286, 0.1026698051052306, -0.28533333699207697, -0.11235849397170244],
    [-0.24196414729062227, 0.39962299119840394, 0.029409033524225865, -0.10123014270662274,
     0.0939693920070468, -0.01453011800117064, -0.5058082523065224, -0.05799404619453572,
     0.5333701292385508, 0.16310918497467705, 0.3801240192381122, -0.21636345310344615],
    [-0.5326968902336539, -0.25001282975256434, 0.4844821981086424, -0.35816784717920425,
     -0.28457314216644625, 0.39620251085510727, -0.08977079697427054, -0.07114284845428012,
     0.13647418407697182, 0.03118076655045924, -0.10868663509788962, 0.09072909985407579],
    [-0.25465606361283444, -0.015225317129124071, 0.23368949928854157, -0.3780737197216351,
     -0.07603216052699331, -0.4075686832917702, 0.2658064885504773, 0.21923432265000228,
     0.33594640184075564, 0.36794398832480196, 0.3649797768826403, 0.2555485467700928],
    [-0.19930033732641025, 0.23970136216519575, -0.2338160796854102, 0.5976360661815184,
     0.07397186469249016, 0.15198199298263756, -0.3160430963703313, 0.2747391159302898,
     0.30066588172506703, -0.4022504229195559, -0.14283568268035046, -0.12017160577922163],
    [-0.14207084155165034, 0.3025139680424719, 0.473921512712888, -0.23337153779998157,
     0.22956632018840653, -0.05755226261382529, 0.29993414105357, -0.536396513454044,
     -0.09524773346523135, 0.26614554355601827, -0.1667634078769357, 0.2604362072544232],
    [-0.12072907328335011, 0.2677208151829796, 0.1371481239940602, -0.0993479201963777,
     -0.18010207594836952, -0.040334062661005955, 0.27247060585512745, -0.0021748223461034296,
     -0.15702013223945482, 0.7815063388669871, -0.3720651440999641, -0.05405490235503086],
    [0.1671627894562096, -0.32538626569473394, -0.004668158810160393, -0.13170692609686824,
     -0.4607704572301813, 0.14032940397369534, -0.3545546433162228, -0.23506424397483122,
     0.38170915146950846, -0.3485968916210942, 0.18625019933774986, 0.36597147176358413],
    [0.37404367313260845, 0.17563476845558762, -0.09047101090748189, -0.5322828575283031,
     0.052631577305150896, 0.16604732464475155, -0.19502007703814983, -0.37530780230753735,
     0.3258593428161137, -0.40145737256963726, 0.16423942900068078, -0.1848681077530091],
    [-0.3813213273457269, 0.3614938336130187, 0.13548512964809992, 0.11998530404000546,
     -0.3209438260228705, -0.03133073598735572, 0.06033338654606293, -0.17086059675588883,
     0.36852891007348015, -0.45830190240948043, 0.15500755777440717, -0.42949040759350604],
    [-0.3862669972285474, -0.31705174208502096, 0.13387052096547397, -0.17973285458129945,
     -0.1698256392123273, -0.22772506207598966, -0.3675015808078969, -0.2263287253587903,
     -0.24819805418606053, -0.0866847933821969, -0.1015301972502012, -0.5946800151207645],
    [-0.20658160919582405, 0.35011099960513886, -0.1558983703815168, -0.03721901007860121,
     -0.2323981954236031, -0.22279185343673635, -0.040206957270806434, -0.4233004952409774,
     -0.06975671854626703, -0.5194336615725331, 0.07897425412651295, -0.4936572382217473],
    [0.16370780315327232, 0.26509801035206015, -0.48243688296011455, 0.1683335794804836,
     -0.1391527722235799, 0.3054214925544371, -0.1752468020755784, -0.10528670727615702,
     -0.10820155305614004, 0.3303682000769845, -0.574732359572133, 0.19034373309737962],
], offsets=[
    0.23459147266909783, 0.699257054363127, 0.48997624671432394, 0.7669620637508079,
    0.7532727272350246, 0.11634363325417214, 0.26469949075115407, 0.6700601023470216,
    0.4690766532023496, 0.2021078734022096, 0.458119090780185, 0.34356600535419335,
    0.3697870830490645], x=[
    -4.431958100964878, 2.9618866416948038, 0.3417753588252062, -1.9281738144005256,
    1.1015037822539198, -0.1344349230477458, 2.2018726895074714, -1.8270290604457615,
    1.7187652732096235, -2.0283246640921804, 0.4225623105203466, 1.1758570530369779])
CUTS_P20 = _box_cuts(20.0, hi=[
    0.3847264984119637, 1.4190844966543594, 1.2522188079302605, 0.964156258349635,
    0.9315632611566225, 1.2566532861452848, 0.6933768533002125, 1.276453889119244,
    0.8186074796162734, 1.2638462550444054, 0.9199583292013489, 1.471640391701598], lo=[
    -0.6267307030332577, -0.6024231132832736, -0.757800322814275, -0.889850952553859,
    -0.6117564344205112, -1.283138099698747, -1.256688437920466, -1.2927577581419374,
    -1.2701321339035454, -0.9559341422499079, -1.3282695331708976, -0.38794999179505907], cuts=[
    [-0.44360595585529394, 0.09678530180921786, -0.37177361010327703, 0.1746795171240141,
     0.19334088551869494, -0.5277903515054773, 0.11363854527299391, 0.04247286488228144,
     -0.14649275848141077, 0.21764254224802795, 0.4615929906747143, 0.11207274650557776],
    [-0.3691490124754138, -0.48549592186412655, -0.39469830840388204, -0.3440693695546924,
     0.36976245657631046, 0.09110168174479105, -0.013922175065570652, 0.286123214249574,
     0.001258427188955954, 0.006655945001014332, -0.28548966104535967, -0.21264497998141763],
    [0.0045514457152209115, -0.3479900513028251, 0.48355515511661795, 0.03186547818893552,
     -0.16567306296520953, 0.28217385334001915, -0.3155329466768493, 0.3064214376956048,
     0.020425581171674135, 0.5484885428102505, -0.16603397183829585, -0.1212116364559693],
    [-0.24488956577835874, -0.35984202015954236, 0.06693953225481623, -0.30609897866870317,
     0.08628880539070004, -0.18678219339089727, 0.29562486506446944, -0.7316052669266726,
     0.1138842016725626, 0.008639931298263973, -0.004595351045526761, -0.18527354150633665],
    [0.5944639910269958, -0.1470380034083478, 0.1401956066834891, -0.0964813084495344,
     -0.1299240278291316, 0.024011305492443288, 0.22578225689600723, -0.3898366295077216,
     -0.16799265588039217, -0.49045107719767983, 0.13040483193392963, -0.2997544080290339],
    [-0.4482290589770908, 0.3703443345064572, -0.018503387378681978, 0.22575911688142924,
     -0.09404055568675027, 0.22824384073478335, 0.039163035802888546, -0.6658987846681818,
     0.11250639977436364, -0.2137182503117806, -0.1525776011346078, 0.1520503658999396],
    [-0.18735812764684248, -0.3545561239585089, 0.3815493124216047, 0.5971976323955587,
     -0.11982561493577235, 0.36996671406885456, 0.11977573097047954, -0.21757613314896912,
     -0.28106863932807374, -0.09885875905602066, -0.14774329969853545, -0.11594021389954941],
    [-0.04637676051075911, -0.3692234596267906, 0.2705762186099806, -0.3689310678342014,
     -0.34941518764327334, 0.28966786851519605, 0.23725628299837329, 0.45999229597857555,
     0.037061904558077, -0.2130730255068323, 0.36078447516337275, -0.03715602212841369],
    [-0.030764007791045215, -0.18453013862545342, 0.08130984204046934, -0.5073076471703407,
     0.1074887557700796, -0.4298910396957779, 0.18120938700193817, -0.3353782985374948,
     0.1403263214847356, 0.5214370794576835, -0.06350535931208535, -0.25245444298319986],
    [0.38197647512768984, -0.09171953647688884, -0.22531136262759136, 0.24530006407486682,
     -0.5692401717296012, -0.2988349391730955, -0.26553755977202487, -0.14216365717715698,
     -0.4065453672466669, 0.15953567736521568, 0.19930860683309096, -0.01523429422066469],
    [-0.11580478284477128, -0.4221756793215847, 0.11917384364285585, -0.1922725045821701,
     0.15847417496425087, 0.26627010212418406, 0.00680206298514627, -0.5688352500606416,
     -0.25513405916249987, 0.3583576433587749, 0.06796352516820096, 0.37338928264321364],
    [-0.6367952859761519, -0.037364216237095245, -0.055239874753816136, -0.46443895403449925,
     -0.18750830931902432, 0.2707596897008422, 0.14752402156425967, -0.15660168056410712,
     0.0868402113028286, 0.33139103059756203, -0.3101962504303791, 0.07746059095301791],
    [0.36662250259254786, -0.25286170685456305, 0.45911428851649644, -0.03860726426499824,
     0.3904424503974078, 0.32399387578443684, 0.08835377174751495, -0.11040333140896155,
     -0.24050509356036984, 0.05478399499536951, 0.06948032336274705, 0.49627444259023556],
    [-0.03245456943080323, 0.10703616573880807, 0.5301970715808776, 0.09785205885865546,
     0.14028499644493578, 0.5060780455959218, 0.0242400541104192, 0.12210515628811815,
     0.23519873974579578, -0.04189556260436897, -0.35821341225348285, -0.4691730470431816],
    [-0.06659827119377554, 0.3400644729744351, 0.3005693060254173, 0.49474217173885704,
     0.27309539501007835, -0.2032284716828884, -0.4503281743015814, -0.16274879903805436,
     -0.08579436906458014, -0.23214313615881735, 0.2778839163256224, -0.24733171502141457],
    [0.17890760493423222, 0.2427136069724225, -0.5557352889623933, -0.13875294861326404,
     0.39278783077708895, 0.2622085134860794, 0.03368157168789277, -0.3555404990179766,
     -0.22728517338472606, 0.022669011711084576, 0.39426027931291, 0.15098145746845254],
    [-0.034811129715059674, 0.07376697506470405, 0.2583115195424802, -0.5994914376333369,
     -0.3409543376766593, 0.004954759854722165, 0.4042442794803354, 0.3602254004826523,
     -0.2698096057262962, 0.002569671476307944, -0.25673066874133654, -0.13808383039471003],
    [0.04535695490718465, -0.13544129935533056, -0.20559978278597985, -0.4222326348824672,
     -0.5722643647629828, -0.07515411857152361, 0.06194143965586051, 0.21380715932839503,
     -0.2985452186001216, -0.26480721281684794, 0.44389888483421036, 0.14164574444936848],
    [0.2666664198898362, -0.18098905684462657, -0.2261242654633514, -0.3605544765060609,
     0.2991914107473268, -0.3557801692434551, -0.538975698682415, -0.23655923595774286,
     0.38366768470522866, 0.0024295857791013587, 0.06598006758415673, 0.029832840531973614],
    [-0.017973196983040524, -0.0514987845778193, -0.3911262971938802, 0.4517962861293457,
     -0.04738720858293122, 0.3277858466334645, -0.4349445695851002, 0.14324690881563867,
     -0.32988062215018127, -0.36063549860942895, 0.06762798949717481, 0.27764523745628267],
    [0.41210004632860947, 0.4008642134190468, -0.08924778865681733, 0.23383632942413995,
     -0.18904073080265155, -0.17144384026190174, 0.06832826180191041, -0.04224588271893262,
     0.2534112998681591, -0.5663267326012699, 0.3413266960042382, -0.18386629620082318],
], offsets=[
    0.5306800880640696, 0.5503331327714388, 0.2635755395767154, 0.7988137413157652,
    0.14476390338019118, 0.11828752323048748, 0.34887279121411613, 0.7869643881678214,
    0.28277489834452924, 0.14822574664563126, 0.32454116852804266, 0.6352299786890753,
    0.6533415545794593, 0.15448598339854908, 0.3913105573228539, 0.40014090974621186,
    0.22120579614696395, 0.2038893122599075, 0.3246779265611519, 0.36879112161339056,
    0.5239805799086172], x=[
    -0.9865132073155175, 0.6136693933050297, 0.2176750778194341, -0.38336326310447133,
    -0.09081090653087555, 0.6071825877566056, 0.27198956058968565, -0.8863232797259049,
    -0.5067235280605328, 0.08836033394885323, 0.8843412498164307, 0.37733964366292194])


def cut_corpus():
    """240 seeded H projections: p in {1.5, 2, 3, 4}, n = 2..6, six sets per
    (p, n) of 1-3 unit cuts with offsets in [0.2, 0.8], 30% of them cuts
    alone (unbounded) and the rest under an axis box, two points x = 2 N(0, I)
    each."""
    rng = np.random.default_rng(2024)
    for p in (1.5, 2.0, 3.0, 4.0):
        for n in range(2, 7):
            for _ in range(6):
                R = rng.normal(size=(int(rng.integers(1, 4)), n))
                R /= np.linalg.norm(R, axis=1, keepdims=True)
                A, b = R, rng.uniform(0.2, 0.8, size=len(R))
                if rng.random() >= 0.3:
                    lo, hi = rng.uniform(-1.5, -0.3, size=n), rng.uniform(0.3, 1.5, size=n)
                    A, b = np.vstack([np.eye(n), -np.eye(n), R]), np.concatenate([hi, -lo, b])
                C = PolytopeH(normals=A, offsets=b)
                for _ in range(2):
                    yield p, C, 2.0 * rng.normal(size=n)


def isotonic_point(index):
    """Point `index` of the isotonic corpus: for p in {1.5, 3, 4} and n in
    {10, 30, 100, 300}, the chain z_1 <= ... <= z_n (rows e_i - e_{i+1},
    offsets 0) and five points x = 0.3 cumsum(N(0, I)) + N(0, I) from
    default_rng(11)."""
    rng = np.random.default_rng(11)
    for p in (1.5, 3.0, 4.0):
        for n in (10, 30, 100, 300):
            for _ in range(5):
                x = 0.3 * np.cumsum(rng.normal(size=n)) + rng.normal(size=n)
                if index == 0:
                    chain = np.eye(n - 1, n) - np.eye(n - 1, n, 1)
                    return p, PolytopeH(normals=chain, offsets=np.zeros(n - 1)), x
                index -= 1
    raise IndexError("the isotonic corpus has 60 points")


def vertex_corpus():
    """216 seeded V projections: for each seed 0-7 of default_rng([seed, 77]),
    p in {1.5, 3, 4} and n in {2, 3, 4}, the hull of n + 3 Gaussian vertices
    and three points x = 2 N(0, I) (203 of them outside the hull)."""
    for seed in range(8):
        rng = np.random.default_rng([seed, 77])
        for p in (1.5, 3.0, 4.0):
            for n in (2, 3, 4):
                C = PolytopeV(vertices=rng.normal(size=(n + 3, n)))
                for _ in range(3):
                    yield p, C, 2.0 * rng.normal(size=n)


def lp_dist(p, a, b):
    return lp_norm(np.asarray(a, dtype=float) - np.asarray(b, dtype=float), p)


class TestCertify:
    def test_true_projection_certifies(self):
        space = LpSpace(2.0)
        x = np.array([2.0, 0.0, 0.0])
        u = np.array([1.0, 0.0, 0.0])
        assert _support_gap(space, SIMPLEX, x, u, 0, CERT_TOL).residual >= -1e-8

    def test_non_optimal_vertex_is_exposed(self):
        # p=2 so J(x-u) = (2,-1,0); the support vertex is e1 with score 2,
        # while <J,u> = -1, hence the residual is exactly -3
        space = LpSpace(2.0)
        x = np.array([2.0, 0.0, 0.0])
        u = np.array([0.0, 1.0, 0.0])
        assert _support_gap(space, SIMPLEX, x, u, 0, CERT_TOL).residual == -3.0

    def test_query_inside_set_scores_zero(self):
        space = LpSpace(2.0)
        inside = np.array([0.25, 0.25, 0.5])
        assert _support_gap(space, SIMPLEX, inside, inside, 0, CERT_TOL).residual == 0.0


def _support_cases(rng, n):
    """(descriptor, sampler of broad members) pairs for every set type."""
    c = rng.normal(size=n)
    a, d = rng.normal(size=n), rng.normal(size=n)
    V = rng.normal(size=(n + 3, n))
    A = np.vstack([np.eye(n), -np.eye(n), rng.normal(size=(2, n))])
    b = np.concatenate([np.full(2 * n, 1.5), [0.5, 0.5]])
    free = np.arange(n) % 2 == 0

    def ball(p, k):
        g = rng.normal(size=(k, n))
        g /= np.array([lp_norm(row, p) for row in g])[:, None]
        return c + 0.8 * rng.uniform(0.0, 1.0, (k, 1)) ** (1.0 / n) * g

    def polytope_h(p, k):
        Z = rng.uniform(-1.5, 1.5, (20 * k, n))
        return Z[np.all(Z @ A.T <= b, axis=1)]

    return [
        (Ball(center=c, radius=0.8), ball),
        (PositiveCone(), lambda p, k: np.abs(rng.normal(size=(k, n))) * 3.0),
        (CoordinateSubspace(free=free), lambda p, k: np.where(free, 3.0 * rng.normal(size=(k, n)), 0.0)),
        (Segment(u=a, w=a + d), lambda p, k: a + rng.uniform(0.0, 1.0, (k, 1)) * d),
        (Ray(v=a, dir=d), lambda p, k: a + rng.uniform(0.0, 20.0, (k, 1)) * d),
        (Singleton(y=c), lambda p, k: np.tile(c, (k, 1))),
        (PolytopeV(vertices=V), lambda p, k: rng.dirichlet(np.ones(n + 3), size=k) @ V),
        (PolytopeH(normals=A, offsets=b), polytope_h),
    ]


class TestSupportGap:
    def test_canonical_probe_blind_spot_is_exposed(self):
        # e1 is on the unit sphere and ties the old probes ±e_i and u at
        # exactly 0, yet lies about 0.5 from the true projection of x
        space = LpSpace(3.0)
        C = Ball(center=np.zeros(3), radius=1.0)
        x = np.array([2.0, 1.0, 0.5])
        u = np.array([1.0, 0.0, 0.0])
        probes = [s * e for s in (1.0, -1.0) for e in np.eye(3)] + [u]
        assert probe_gap(3.0, x, u, probes) == 0.0
        assert space.norm(u - project(space, C, x)) > 0.49
        j = space.duality_map(x - u)
        z = support(space, C, j, x, 2.0 * space.norm(x - u) + 1.0)
        assert probe_gap(3.0, x, u, [z]) < -CERT_TOL

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_support_point_beats_sampled_members(self, p, rng):
        space = LpSpace(p)
        n = 3
        for C, sample in _support_cases(rng, n):
            for _ in range(10):
                j = rng.normal(size=n)
                x = rng.normal(size=n)
                box = float(rng.uniform(6.0, 9.0))   # reaches every set here
                z = support(space, C, j, x, box)
                assert contains(space, C, z), type(C).__name__
                W = sample(p, 400)
                W = W[np.all(np.abs(W - x) <= box, axis=1)]
                assert len(W) > 0, type(C).__name__
                assert np.all(W @ j <= j @ z + 1e-9 * max(1.0, np.abs(j) @ np.abs(z))), \
                    type(C).__name__

    def test_failed_support_lp_never_certifies(self, monkeypatch):
        # the fallback instance: its weights do not certify, so the LP is asked
        monkeypatch.setattr(sets_mod, "support", lambda *args: None)
        cert = project_with_certificate(LpSpace(FALLBACK_P), FALLBACK, FALLBACK_X)
        assert not cert.converged
        assert cert.residual == -np.inf

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_far_exact_ball_projections_stay_certified(self, p, rng):
        # the gap's rounding error grows like eps * ‖x - u‖ * ‖z‖, far
        # above CERT_TOL at this scale; the rounding allowance absorbs it
        space = LpSpace(p)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            C = Ball(center=rng.normal(size=n), radius=float(rng.uniform(0.5, 2.0)))
            x = rng.normal(size=n)
            x *= 1e10 / space.norm(x)
            cert = project_with_certificate(space, C, x)
            assert cert.converged
            assert np.array_equal(cert.point, project(space, C, x))

    def test_far_ball_projections_with_cancelling_coordinates_stay_certified(self):
        # u = c + s(x - c) rounds each u_i with an error of order eps |c_i|,
        # which the pairing's own rounding term misses where u_i cancels to
        # |u_i| << |c_i|; an allowance without |c_i| leaves 5, 1 and 1 of
        # these uncertified at 1e9, 1e10 and 1e12
        rng = np.random.default_rng(0)
        spaces = [LpSpace(p) for p in (1.5, 2.0, 3.0, 4.0)]
        for scale in (1e8, 1e9, 1e10, 1e12):
            uncertified = 0
            for _ in range(10_000):
                space = spaces[int(rng.integers(4))]
                n = int(rng.integers(2, 9))
                C = Ball(center=rng.normal(size=n), radius=float(rng.uniform(0.5, 2.0)))
                x = rng.normal(size=n)
                x *= scale / space.norm(x)
                uncertified += not project_with_certificate(space, C, x).converged
            assert uncertified == 0, scale

    def test_allowance_stays_finite_next_to_overflow(self):
        # |j|·(|u| + |z|) overflows at this x, and an infinite allowance
        # would certify any point; scaled first, it is about 1e293
        space = LpSpace(3.0)
        C = Ball(center=np.zeros(2), radius=1.0)
        x = np.array([1e308, 1e308])
        with np.errstate(over="raise"):
            cert = project_with_certificate(space, C, x)
            wrong = _support_gap(space, C, x, np.array([1.0, 0.0]), 0, CERT_TOL)
        assert cert.converged
        assert np.array_equal(cert.point, project(space, C, x))
        assert not wrong.converged

    @pytest.mark.parametrize("shift", [0.0, 5.0])
    def test_center_allowance_still_rejects_the_e1_counterexample(self, shift):
        space = LpSpace(3.0)
        c = np.full(3, shift)
        C = Ball(center=c, radius=1.0)
        x = c + np.array([2.0, 1.0, 0.5])
        u = c + np.array([1.0, 0.0, 0.0])
        cert = _support_gap(space, C, x, u, 0, CERT_TOL)
        assert not cert.converged
        assert cert.residual < -0.1

    def test_exact_ball_projection_near_p1_stays_certified(self):
        # the support point c + r|j/‖j‖_q|^(q-1) sign j rounds q - 1 = 20
        # times worse than j at p = 1.05; an allowance without that term
        # had 2.485e-6 here against a residual of -2.607e-6
        space = LpSpace(1.05)
        C = Ball(center=[260.5919116373595, 666.3605925310518], radius=1000.0)
        x = np.array([-414366.29568610346, -891835.0956013884])
        cert = project_with_certificate(space, C, x)
        assert cert.residual < -CERT_TOL
        assert cert.converged

    def test_exact_far_ball_projections_near_p1_stay_certified(self):
        # 4 of 4000 of these were uncertified, and the CLI exited 4 on them
        rng = np.random.default_rng(1)
        space = LpSpace(1.05)
        uncertified = 0
        for _ in range(4000):
            n = int(rng.integers(2, 6))
            C = Ball(center=1e3 * rng.standard_normal(n), radius=1000.0)
            x = C.center + 1e6 * rng.standard_normal(n)
            uncertified += not project_with_certificate(space, C, x).converged
        assert uncertified == 0

    def test_overflowed_gap_never_certifies_a_wrong_point(self):
        # |j|·|c| overflows the allowance at this center, and an infinite
        # allowance certified a wrong point whose gap overflowed to -inf
        space = LpSpace(3.0)
        c = np.array([1e170, 1e170])
        C = Ball(center=c, radius=1e170)
        x = c + np.array([1e172, 0.0])
        with np.errstate(over="ignore", invalid="ignore"):
            wrong = _support_gap(space, C, x, c + np.array([0.0, 1e170]), 0, CERT_TOL)
        assert wrong.residual == -np.inf
        assert not wrong.converged


class TestKernelIdentity:
    """The certificate's distance and J are the public norm and J, bit for bit."""

    @pytest.mark.parametrize("descriptor", [
        Ball(center=[0.3, -0.2, 0.1], radius=0.8),
        PositiveCone(),
        CoordinateSubspace(free=[True, False, True]),
        Segment(u=[0.0, 0.0, 0.0], w=[1.0, -1.0, 0.5]),
        Ray(v=[0.0, 1.0, 0.0], dir=[1.0, 0.0, -1.0]),
        Singleton(y=[1.0, 1.0, -1.0]),
    ], ids=lambda C: C.kind)
    def test_certificate_uses_the_public_norm_and_duality_map(self, descriptor, rng, monkeypatch):
        import banachproj.sets as sets_mod

        seen = []
        entry = sets_mod.support

        def spy(space, C, j, x, box):
            seen.append(j)
            return entry(space, C, j, x, box)

        monkeypatch.setattr(sets_mod, "support", spy)
        for p in (1.5, 2.0, 3.0):
            space = LpSpace(p)
            for x in 2.0 * rng.standard_normal((10, 3)):
                x[int(rng.integers(3))] *= -0.0 if rng.uniform() < 0.3 else 1.0
                cert = project_with_certificate(space, descriptor, x)
                r = x - cert.point
                assert np.float64(cert.distance).tobytes() == np.float64(space.norm(r)).tobytes()
                assert seen.pop().tobytes() == space.duality_map(r).tobytes()


class TestVertexRepresentation:
    def test_euclidean_simplex_nearest_vertex(self):
        space = LpSpace(2.0)
        cert = project_with_certificate(space, SIMPLEX, np.array([2.0, 0.0, 0.0]))
        assert_allclose(cert.point, [1.0, 0.0, 0.0], atol=1e-9)
        assert cert.converged
        assert cert.residual >= -CERT_TOL
        assert_allclose(cert.distance, 1.0, rtol=1e-12)

    @pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
    def test_query_in_hull_returned_exactly(self, scale):
        # no membership LP runs first: the ℓ_2 Newton pass reaches an in-hull
        # x to rounding and returns x itself.  Without it, p = 1.05 stalled
        # for 100,000 steps and the 1e100 scale left most queries uncertified;
        # measured over these 600 queries: all exact, at most 11 steps
        rng = np.random.default_rng(11)
        for _ in range(100):
            n, p = int(rng.integers(2, 5)), float(rng.choice([1.05, 1.2, 1.5, 2.0, 3.0, 4.0]))
            V = scale * rng.standard_normal((n + 3, n))
            x = rng.dirichlet(np.ones(n + 3)) @ V
            cert = project_with_certificate(LpSpace(p), PolytopeV(vertices=V), x)
            assert cert.converged
            assert np.array_equal(cert.point, x)
            assert cert.residual == 0.0 and cert.distance == 0.0
            assert cert.iterations <= 20

    def test_member_at_zero_tolerance(self):
        # ℓ_2 Newton lands 2.8e-17 from this point; it is still its own
        # projection, so membership holds at tol = 0
        x = np.array([0.1, 0.2, 0.7])
        for p in (1.05, 2.0, 3.0):
            assert np.array_equal(project(LpSpace(p), SIMPLEX, x), x)
            assert contains(LpSpace(p), SIMPLEX, x, tol=0.0)

    def test_single_vertex_hull(self):
        space = LpSpace(3.0)
        C = PolytopeV(vertices=np.array([[1.5, -2.0]]))
        cert = project_with_certificate(space, C, np.zeros(2))
        assert_allclose(cert.point, [1.5, -2.0], rtol=0, atol=0)
        assert cert.residual == 0.0
        assert cert.iterations == 0
        assert cert.converged

    def test_simplex_p3_face_optimum(self):
        # KKT by hand on the active face z3=0: 1.2-a = 0.9-b with a+b=1
        # gives (0.65, 0.35, 0); a multiresolution grid over the face
        # parameters confirms it to 1e-5
        space = LpSpace(3.0)
        x = np.array([1.2, 0.9, -0.4])
        cert = project_with_certificate(space, SIMPLEX, x)
        assert cert.converged
        assert_allclose(cert.point, [0.65, 0.35, 0.0], atol=1e-6)
        assert_allclose(cert.distance, 0.39675 ** (1.0 / 3.0), rtol=1e-9)

    def test_simplex_p3_matches_inline_grid_oracle(self):
        space = LpSpace(3.0)
        x = np.array([1.3, -0.2, 0.6])
        cert = project_with_certificate(space, SIMPLEX, x)

        def obj(ab):
            pts = np.stack([ab[:, 0], ab[:, 1], 1.0 - ab[:, 0] - ab[:, 1]], axis=1)
            return np.sum(np.abs(pts - x) ** 3.0, axis=1)

        feas = lambda ab: (ab[:, 0] >= 0.0) & (ab[:, 1] >= 0.0) & (ab.sum(axis=1) <= 1.0)
        ab, val = grid_argmin(obj, feas, np.zeros(2), np.ones(2), final_step=1e-4, pts=21)
        oracle_pt = np.array([ab[0], ab[1], 1.0 - ab[0] - ab[1]])
        assert cert.converged
        # the grid cannot beat the solver beyond its own resolution
        assert np.sum(np.abs(cert.point - x) ** 3.0) <= val + 1e-7
        assert_allclose(cert.point, oracle_pt, atol=5e-4)

    def test_six_vertex_hull_p4(self):
        space = LpSpace(4.0)
        V = np.array([
            [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
            [1.0, 1.0, 0.0], [0.5, 0.0, 1.0], [0.0, 0.5, 0.5],
        ])
        C = PolytopeV(vertices=V)
        x = np.array([2.0, 1.5, -1.0])
        cert = project_with_certificate(space, C, x)
        assert cert.converged
        assert cert.residual >= -CERT_TOL
        assert_allclose(cert.point, [1.0, 1.0, 0.0], atol=1e-6)
        f = lambda z: np.sum(np.abs(x - z) ** 4.0)
        assert f(cert.point) <= min(f(v) for v in V) + 1e-10
        # reprojecting the answer, a vertex, stops at the nearest-vertex start
        again = project_with_certificate(space, C, cert.point)
        assert again.distance == 0.0
        assert again.iterations == 0

    def test_seeded_vertex_corpus_certifies(self):
        # SLSQP left 10 of the 203 outside points uncertified (worst residual
        # -6.3e-8); Newton on the hull weights certifies every one, with a
        # worst residual of -1.1e-14, in at most 12 steps
        worst = math.inf
        for p, C, x in vertex_corpus():
            cert = project_with_certificate(LpSpace(p), C, x)
            assert cert.converged
            assert cert.iterations <= 20
            worst = min(worst, cert.residual)
        assert worst >= -1e-13

    def test_near_boundary_points_are_projected_not_returned(self):
        # y = u + ε·unit(x - u) lies ε outside the hull, along the ray that
        # projects to u.  A hull-membership LP accepted most of these points
        # (all 198 at ε = 1e-9, 88 at 1e-7) and returned y as its own
        # projection; Newton brings every one back to u, certified
        rng = np.random.default_rng(3)
        outside = 0
        for _ in range(200):
            n, p = int(rng.integers(2, 5)), float(rng.choice([1.5, 3.0, 4.0]))
            space = LpSpace(p)
            C = PolytopeV(vertices=rng.standard_normal((n + 3, n)))
            x = 3.0 * rng.standard_normal(n)
            u = project_with_certificate(space, C, x)
            assert u.converged
            if u.distance < 1e-12:   # x in the hull
                continue
            outside += 1
            e = space.unit(x - u.point)
            for eps in (1e-9, 1e-8, 1e-7):
                y = u.point + eps * e
                cert = project_with_certificate(space, C, y)
                assert cert.converged
                assert not np.array_equal(cert.point, y)
                assert_allclose(cert.point, u.point, rtol=0, atol=1e-13)
            assert not contains(space, C, u.point + 1e-7 * e)
        assert outside == 198


class TestHalfspaceRepresentation:
    def test_single_halfspace_clips_one_coordinate(self):
        space = LpSpace(3.0)
        C = PolytopeH(normals=[[1.0, 0.0, 0.0]], offsets=[0.0])
        cert = project_with_certificate(space, C, np.array([1.0, -2.0, 3.0]))
        assert cert.converged
        assert_allclose(cert.point, [0.0, -2.0, 3.0], atol=1e-6)

    def test_euclidean_box(self):
        space = LpSpace(2.0)
        C = PolytopeH(
            normals=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
            offsets=[1.0, 0.0, 1.0, 0.0],
        )
        cert = project_with_certificate(space, C, np.array([2.0, 0.5]))
        assert cert.converged
        assert_allclose(cert.point, [1.0, 0.5], atol=1e-9)

    def test_euclidean_halfplane_foot(self):
        space = LpSpace(2.0)
        C = PolytopeH(normals=[[1.0, 1.0]], offsets=[1.0])
        cert = project_with_certificate(space, C, np.array([1.0, 1.0]))
        assert cert.converged
        assert_allclose(cert.point, [0.5, 0.5], atol=1e-9)

    def test_polygon_p15_face_optimum(self):
        # active row z1+z2 <= 1.2; on that line 1.6-z = z+0.1 gives
        # (0.75, 0.45), confirmed by a grid projection oracle
        space = LpSpace(1.5)
        C = PolytopeH(
            normals=[[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, -0.5]],
            offsets=[1.2, 0.4, 0.5, 0.9],
        )
        cert = project_with_certificate(space, C, np.array([1.6, 1.3]))
        assert cert.converged
        assert_allclose(cert.point, [0.75, 0.45], atol=1e-6)

    def test_polygon_p15_matches_inline_grid_oracle(self):
        space = LpSpace(1.5)
        A = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, -0.5]])
        b = np.array([1.2, 0.4, 0.5, 0.9])
        C = PolytopeH(normals=A, offsets=b)
        x = np.array([-1.3, 1.7])
        cert = project_with_certificate(space, C, x)
        feas = lambda Z: np.all(Z @ A.T <= b + 1e-12, axis=1)
        pt, val = grid_project(1.5, feas, x, np.array([-2.0, -2.0]),
                               np.array([2.0, 2.0]), final_step=1e-4, pts=21)
        assert cert.converged
        assert lp_dist(1.5, cert.point, x) <= val + 1e-7
        assert_allclose(cert.point, pt, atol=5e-4)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_cone_encoding_matches_closed_form(self, p, rng):
        space = LpSpace(p)
        C = PolytopeH(normals=-np.eye(3), offsets=np.zeros(3))
        for _ in range(10):
            x = rng.normal(size=3) * 2.0
            cert = project_with_certificate(space, C, x)
            assert cert.converged
            assert lp_dist(p, cert.point, project(space, PositiveCone(), x)) <= 1e-6

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_subspace_encoding_matches_closed_form(self, p, rng):
        space = LpSpace(p)
        free = np.array([True, False, True])
        A = np.zeros((2, 3))
        A[0, 1], A[1, 1] = 1.0, -1.0
        C = PolytopeH(normals=A, offsets=np.zeros(2))
        for _ in range(10):
            x = rng.normal(size=3) * 2.0
            cert = project_with_certificate(space, C, x)
            assert cert.converged
            assert lp_dist(p, cert.point, project(space, CoordinateSubspace(free=free), x)) <= 1e-6

    def test_query_inside_returned_exactly(self):
        space = LpSpace(1.5)
        C = PolytopeH(normals=[[1.0, 0.0], [0.0, 1.0]], offsets=[1.0, 1.0])
        x = np.array([0.2, -0.7])
        cert = project_with_certificate(space, C, x)
        assert np.array_equal(cert.point, x)
        assert cert.iterations == 0
        assert cert.residual == 0.0

    def test_oblique_rows_certify(self, rng):
        for p in (1.5, 2.0, 3.0):
            space = LpSpace(p)
            for _ in range(5):
                A = rng.normal(size=(5, 4))
                z = rng.normal(size=4)
                b = A @ z + rng.uniform(0.1, 1.0, size=5)
                C = PolytopeH(normals=A, offsets=b)
                cert = project_with_certificate(space, C, rng.normal(size=4) * 3.0)
                assert cert.converged
                assert cert.residual >= -CERT_TOL
                assert np.all(A @ cert.point <= b + 1e-9)

    def test_regression_cut_box_certifies_fast(self):
        start = time.perf_counter()
        cert = project_with_certificate(LpSpace(4.0), CUT_BOX, CUT_BOX_X)
        assert time.perf_counter() - start < 1.0
        assert cert.converged
        active = CUT_BOX.normals @ cert.point >= CUT_BOX.offsets - 1e-9
        assert np.flatnonzero(active).tolist() == [4, 7, 9, 13, 14]

    def test_seeded_cut_corpus_certifies(self):
        # the SLSQP solver certified these too, but its worst residual was
        # -4.9e-9; the dual's is -8.1e-15
        worst = math.inf
        for p, C, x in cut_corpus():
            cert = project_with_certificate(LpSpace(p), C, x)
            assert cert.converged
            assert np.all(C.normals @ cert.point <= C.offsets + 1e-9)
            worst = min(worst, cert.residual)
        assert worst >= -1e-13


class TestDualCertificate:
    """H projections certified by weak duality from Newton's weights."""

    def test_cut_corpus_certifies_without_lp_below_the_highs_residual(self, monkeypatch):
        # the bound is a lower bound on the support gap; against the HiGHS
        # twin it was at most 1.6e-15 above it (rounding), worst bound -3.0e-14
        monkeypatch.setattr(PolytopeH, "support", lambda *args: pytest.fail("support LP asked"))
        for p, C, x in list(cut_corpus()) + [(4.0, CUT_BOX, CUT_BOX_X)]:
            space = LpSpace(p)
            cert = project_with_certificate(space, C, x)
            assert cert.converged
            if cert.iterations:
                u = cert.point
                j = space.duality_map(x - u)
                z = highs_support(C.normals, C.offsets, j, x, 2.0 * space.norm(x - u) + 1.0)
                assert cert.residual <= float(j @ (u - z)) + 1e-14
                assert cert.residual >= -1e-13

    def test_bound_fails_and_simplicial_decomposition_certifies(self, monkeypatch):
        space = LpSpace(FALLBACK_P)
        u, lam, iterations = _project_hrep(space, FALLBACK, FALLBACK_X, 5000)
        assert not _dual_gap(space, FALLBACK, FALLBACK_X, u, lam, iterations, CERT_TOL).converged
        assert not _support_gap(space, FALLBACK, FALLBACK_X, u, iterations, CERT_TOL).converged
        calls = []
        lp = PolytopeH.support
        monkeypatch.setattr(PolytopeH, "support", lambda *args: calls.append(1) or lp(*args))
        cert = project_with_certificate(space, FALLBACK, FALLBACK_X)
        assert cert.converged and len(calls) > 1   # the decomposition asked for support points
        assert_allclose(cert.point, FALLBACK_POINT, rtol=0.0, atol=1e-15)
        vertex = np.linalg.solve(FALLBACK.normals[[4, 6]], FALLBACK.offsets[[4, 6]])
        assert_allclose(cert.point, vertex, rtol=0.0, atol=1e-15)

    def test_bound_never_certifies_a_point_off_the_rows(self, monkeypatch):
        # Newton's point before the pull, (1.705, -15.219), is far outside
        # the rows, and the bound there alone is +106.7
        monkeypatch.setattr(solver_mod, "_pull_feasible", lambda C, z, anchor: z)
        space = LpSpace(FALLBACK_P)
        u, lam, iterations = _project_hrep(space, FALLBACK, FALLBACK_X, 5000)
        assert_allclose(u, [1.705, -15.219], atol=1e-3)
        cert = _dual_gap(space, FALLBACK, FALLBACK_X, u, lam, iterations, CERT_TOL)
        assert cert.residual > 100.0
        assert not cert.converged

    @pytest.mark.parametrize("case", [CUTS_P8, CUTS_P20], ids=["p8", "p20"])
    def test_decomposition_certifies_what_the_bound_leaves(self, case):
        p, C, x = case
        space = LpSpace(p)
        u, lam, iterations = _project_hrep(space, C, x, 5000)
        assert not _dual_gap(space, C, x, u, lam, iterations, CERT_TOL).converged
        cert = project_with_certificate(space, C, x, max_iter=5000)
        assert cert.converged and cert.iterations < 1000
        assert np.all(C.normals @ cert.point <= C.offsets + 1e-9 * np.abs(C.offsets).max())

    def test_decomposition_keeps_the_budget_and_the_rows(self):
        # a cut-short decomposition returns a point on the rows, no farther
        # from x than Newton's pulled point; the full run's budget gives its point
        p, C, x = CUTS_P20
        space = LpSpace(p)
        slack = 1e-9 * np.abs(C.offsets).max()
        full = project_with_certificate(space, C, x, max_iter=5000)
        newton = _project_hrep(space, C, x, 5000)[0]
        for max_iter in (100, 200, 300, 400):
            cert = project_with_certificate(space, C, x, max_iter=max_iter)
            assert cert.iterations <= max_iter
            assert np.all(C.normals @ cert.point <= C.offsets + slack)
            assert full.distance <= cert.distance <= space.norm(x - newton)
        cert = project_with_certificate(space, C, x, max_iter=full.iterations)
        assert cert.converged and np.array_equal(cert.point, full.point)

    def test_decomposition_solves_one_support_lp_per_iterate(self, monkeypatch):
        # each round's LP certifies its iterate and extends the hull, so no
        # call repeats the one before it (38 calls here, five of them
        # repeats, when the certificate solved the last LP again)
        calls = []
        lp = PolytopeH.support
        monkeypatch.setattr(PolytopeH, "support", lambda self, space, j, x, box:
                            calls.append((j, box)) or lp(self, space, j, x, box))
        total = 0
        for p, C, x in [(FALLBACK_P, FALLBACK, FALLBACK_X), CUTS_P8, CUTS_P20,
                        isotonic_point(18), isotonic_point(55)]:
            calls.clear()
            assert project_with_certificate(LpSpace(p), C, x, max_iter=5000).converged
            for (j, box), (j_next, box_next) in zip(calls, calls[1:]):
                assert not (np.array_equal(j, j_next) and box == box_next)
            total += len(calls)
        assert total <= 32

    @pytest.mark.parametrize("index, bound_s", [(18, 5.0), (55, 2.0)])
    def test_isotonic_chains_certify_quickly(self, index, bound_s):
        # 0.5-0.8 s and 0.18 s measured on a 2-core VM (5,000 Frank–Wolfe
        # steps took 19 s and left the first uncertified, 1,215 took 4.5 s)
        p, C, x = isotonic_point(index)
        start = time.perf_counter()
        cert = project_with_certificate(LpSpace(p), C, x, max_iter=5000)
        assert time.perf_counter() - start < bound_s
        assert cert.converged and cert.iterations < 1000

    def test_nan_or_infinite_weights_never_certify(self):
        space = LpSpace(3.0)
        x, u = np.array([3.0, 0.5]), np.array([1.0, 0.5])
        C = PolytopeH(normals=[[1.0, 0.0], [0.0, 1.0]], offsets=[1.0, 1.0])
        for lam in ([np.nan, 0.0], [np.inf, 0.0], [1e308, 1e308]):
            cert = _dual_gap(space, C, x, u, np.array(lam), 1, CERT_TOL)
            assert not cert.converged
        assert _dual_gap(space, C, x, u, np.array([1.0, 0.0]), 1, CERT_TOL).converged
        # zero weights certify only a point that is its own projection (j = 0)
        assert not _dual_gap(space, C, x, u, np.zeros(2), 0, CERT_TOL).converged
        assert _dual_gap(space, C, u, u, np.zeros(2), 0, CERT_TOL).residual == 0.0


class TestIterationBudget:
    # frozen oblique instance on which a few dual steps still leave a
    # certificate gap of about -0.09, so a unit iteration budget must be
    # reported as a failure while the best iterate stays available
    A = np.array([
        [-2.138225589513189, -1.4499480667813884, 0.7959134126817742],
        [-0.590149399040946, 0.5799149234726574, 0.5423442548146441],
        [1.3222788582368146, 0.8118590596762011, 1.0169913501666112],
        [-0.11167133066420938, -0.6982851765628781, -0.731558777725664],
        [-0.4880439402887327, -1.1298291140131056, -0.5474435821203582],
    ])
    b = np.array([
        -0.2744916906389562, 0.1288005910347735, -0.037102139865458905,
        0.3565871002342095, 0.1250428045750588,
    ])
    x = np.array([-2.574242744582038, -2.8951062404988717, 8.042390089502893])

    def test_exhausted_budget_reports_failure_with_best_iterate(self):
        space = LpSpace(3.0)
        C = PolytopeH(normals=self.A, offsets=self.b)
        cert = project_with_certificate(space, C, self.x, max_iter=1)
        assert not cert.converged
        assert cert.residual < -CERT_TOL
        assert np.all(np.isfinite(cert.point))
        assert np.all(self.A @ cert.point <= self.b + 1e-9)

    def test_full_budget_converges_and_improves(self):
        space = LpSpace(3.0)
        C = PolytopeH(normals=self.A, offsets=self.b)
        capped = project_with_certificate(space, C, self.x, max_iter=1)
        full = project_with_certificate(space, C, self.x)
        assert full.converged
        assert full.residual >= -CERT_TOL
        assert full.distance <= capped.distance + 1e-12

    @pytest.mark.parametrize("max_iter", [0, -3, 2.5, None])
    def test_budget_must_be_a_positive_integer(self, max_iter):
        # 0 and -3 once ran anyway and reported one iteration, converged
        space = LpSpace(3.0)
        box = PolytopeH(normals=np.vstack([np.eye(3), -np.eye(3)]), offsets=np.ones(6))
        hull = PolytopeV(vertices=np.vstack([np.eye(3), -np.eye(3)[:2]]))
        for C in (box, hull, PositiveCone()):
            with pytest.raises(ValueError, match="max_iter"):
                project_with_certificate(space, C, np.array([3.0, -2.0, 0.5]), max_iter=max_iter)
        assert project_with_certificate(space, box, np.array([3.0, -2.0, 0.5]),
                                        max_iter=np.int64(50)).converged

    @pytest.mark.parametrize("cert_tol", [-1.0, np.nan, np.inf])
    def test_tolerance_must_be_finite_and_nonnegative(self, cert_tol):
        # -1 once reported an exact cone projection as unconverged
        space = LpSpace(3.0)
        for C in (PositiveCone(), PolytopeV(vertices=np.eye(3))):
            with pytest.raises(ValueError, match="cert_tol"):
                project_with_certificate(space, C, np.array([1.0, -2.0, 3.0]), cert_tol=cert_tol)

    def test_every_small_budget_is_kept_and_feasible(self):
        # all Newton steps share max_iter; a cut-short run still
        # returns a point of the set (on the rows at membership scale
        # 1e-9 max(1, |b|), or in the hull), and a budget of at least the
        # unbounded run's step count gives that run's certified point
        p, hull, hull_x = list(vertex_corpus())[141]   # the corpus' slowest: 12 steps
        cases = [(LpSpace(3.0), PolytopeH(normals=self.A, offsets=self.b), self.x),
                 (LpSpace(4.0), CUT_BOX, CUT_BOX_X), (LpSpace(p), hull, hull_x)]
        for space, C, x in cases:
            full = project_with_certificate(space, C, x)
            assert full.converged
            for max_iter in range(1, 41):
                cert = project_with_certificate(space, C, x, max_iter=max_iter)
                assert cert.iterations <= max_iter
                if C is hull:
                    assert contains(space, C, cert.point)
                else:
                    slack = 1e-9 * max(1.0, np.abs(C.offsets).max())
                    assert np.all(C.normals @ cert.point <= C.offsets + slack)
                if max_iter >= full.iterations:
                    assert cert.converged
                    assert np.array_equal(cert.point, full.point)


# one 2-d descriptor of every type that pins its dimension
PINNED_2D = {
    "ball": Ball(center=[0.0, 0.0], radius=1.0),
    "subspace": CoordinateSubspace(free=[True, False]),
    "polytope_h": PolytopeH(normals=[[1.0, 0.0], [0.0, 1.0]], offsets=[1.0, 1.0]),
    "polytope_v": PolytopeV(vertices=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
    "segment": Segment(u=[0.0, 0.0], w=[1.0, 0.0]),
    "ray": Ray(v=[0.0, 0.0], dir=[1.0, 0.0]),
    "singleton": Singleton(y=[1.0, 2.0]),
}

# every set type in 2-d
ALL_2D = {**PINNED_2D, "cone": PositiveCone()}

# the entry points that take a descriptor and a point, called with (space, C, x, v)
POINT_ENTRY_POINTS = {
    "project": lambda space, C, x, v: project(space, C, x),
    "project_with_certificate": lambda space, C, x, v: project_with_certificate(space, C, x),
    "directional_derivative": directional_derivative,
    "contains": lambda space, C, x, v: contains(space, C, x),
    "classify_point": lambda space, C, x, v: classify_point(space, C, x),
}

# every entry point that takes a descriptor, called with (space, C)
DESCRIPTOR_ENTRY_POINTS = {
    "contains": lambda space, C: contains(space, C, np.ones(2)),
    "support": lambda space, C: support(space, C, np.ones(2), np.ones(2), 1.0),
    "descriptor_to_json": lambda space, C: descriptor_to_json(C),
    "project_with_certificate": lambda space, C: project_with_certificate(space, C, np.ones(2)),
    "project": lambda space, C: project(space, C, np.ones(2)),
}


class TestDispatch:
    @pytest.mark.parametrize("entry", sorted(POINT_ENTRY_POINTS))
    @pytest.mark.parametrize("kind", sorted(PINNED_2D))
    def test_wrong_dimension_rejected(self, kind, entry):
        space = LpSpace(3.0)
        x, v = np.array([1.0, 2.0, 3.0]), np.array([1.0, -1.0, 0.5])
        with pytest.raises(ValueError, match="point has dimension 3, set expects 2"):
            POINT_ENTRY_POINTS[entry](space, PINNED_2D[kind], x, v)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("entry", sorted(POINT_ENTRY_POINTS))
    @pytest.mark.parametrize("kind", sorted(ALL_2D))
    def test_non_finite_point_rejected(self, kind, entry, bad):
        space = LpSpace(3.0)
        x, v = np.array([1.0, bad]), np.array([1.0, -1.0])
        with pytest.raises(ValueError, match="coordinates must be finite"):
            POINT_ENTRY_POINTS[entry](space, ALL_2D[kind], x, v)

    @pytest.mark.parametrize("entry", sorted(DESCRIPTOR_ENTRY_POINTS))
    @pytest.mark.parametrize("bad", [object(), {"type": "ball", "center": [0.0, 0.0], "radius": 1.0}],
                             ids=["object", "dict"])
    def test_non_descriptors_rejected(self, bad, entry):
        with pytest.raises(TypeError):
            DESCRIPTOR_ENTRY_POINTS[entry](LpSpace(2.0), bad)

    def test_project_rejects_unknown_descriptor(self):
        space = LpSpace(2.0)
        with pytest.raises(TypeError):
            project(space, object(), np.ones(2))

    def test_project_routes_closed_forms(self):
        space = LpSpace(3.0)
        x = np.array([2.0, -1.0, 0.5])
        got = project(space, Ball(center=[0.0, 0.0, 0.0], radius=1.0), x)
        assert_allclose(got, (1.0 / space.norm(x)) * x, rtol=0, atol=0)   # radial pullback
        got = project(space, PositiveCone(), x)
        assert_allclose(got, [2.0, 0.0, 0.5], rtol=0, atol=0)
        free = np.array([True, True, False])
        got = project(space, CoordinateSubspace(free=free), x)
        assert_allclose(got, [2.0, -1.0, 0.0], rtol=0, atol=0)
        got = project(space, Singleton(y=[1.0, 1.0, 1.0]), x)
        assert_allclose(got, [1.0, 1.0, 1.0], rtol=0, atol=0)

    def test_project_routes_polytopes(self):
        space = LpSpace(2.0)
        got = project(space, SIMPLEX, np.array([2.0, 0.0, 0.0]))
        assert_allclose(got, [1.0, 0.0, 0.0], atol=1e-9)


class TestCertificateWrapper:
    @pytest.mark.parametrize("descriptor,x", [
        (Ball(center=[0.0, 0.0], radius=1.0), [3.0, 0.0]),
        (PositiveCone(), [1.0, -2.0]),
        (CoordinateSubspace(free=[True, False]), [1.0, 2.0]),
        (Segment(u=[0.0, 0.0], w=[1.0, 0.0]), [0.5, 1.0]),
        (Ray(v=[0.0, 0.0], dir=[1.0, 0.0]), [2.0, 1.0]),
        (Singleton(y=[1.0, 1.0]), [0.0, 0.0]),
    ])
    def test_closed_forms_certify_without_iterating(self, descriptor, x):
        for p in (1.5, 2.0, 3.0):
            space = LpSpace(p)
            cert = project_with_certificate(space, descriptor, np.array(x))
            assert cert.iterations == 0
            assert cert.residual >= -1e-8
            assert cert.converged
            assert cert.distance >= 0.0

    def test_polytopes_route_to_the_solver(self):
        space = LpSpace(2.0)
        cert = project_with_certificate(space, SIMPLEX, np.array([2.0, 0.0, 0.0]))
        assert cert.converged
        assert_allclose(cert.point, [1.0, 0.0, 0.0], atol=1e-9)

    def test_json_payload_shape(self):
        space = LpSpace(3.0)
        cert = project_with_certificate(space, Ball(center=[0.0, 0.0], radius=1.0),
                                        np.array([2.0, 0.0]))
        payload = cert.to_json()
        assert set(payload) == {"point", "residual", "iterations", "distance", "converged"}
        assert isinstance(payload["point"], list)
        assert isinstance(payload["converged"], bool)
        assert payload["distance"] == pytest.approx(1.0)


class TestDeskScaleContinuity:
    def test_nearby_queries_project_nearby(self, rng):
        # measured modulus on this instance stays below ratio 1; assert a
        # factor-2 envelope so genuine continuity regressions still trip
        space = LpSpace(3.0)
        delta = 1e-3
        for _ in range(25):
            x = rng.uniform(-2.0, 2.0, size=3)
            step = rng.normal(size=3)
            step *= delta * rng.uniform(0.1, 1.0) / lp_norm(step, 3.0)
            y = x + step
            ux = project_with_certificate(space, SIMPLEX, x).point
            uy = project_with_certificate(space, SIMPLEX, y).point
            assert lp_dist(3.0, ux, uy) <= 2.0 * lp_dist(3.0, x, y) + 1e-12


class TestExpansionFixture:
    """Away from p = 2 the projection is not 1-Lipschitz.

    Frozen hit from a randomized search over unit-ball instances: one
    point sits just inside the sphere (fixed by P), the other outside,
    and the flat spot of the l4 sphere stretches the pair apart.
    """

    X = np.array([-0.4049278840870358, -0.10854382298902074, 1.0335952441812766])
    Y = np.array([-0.5617119048046839, -0.10904083165378646, 0.9740428418431443])

    def test_l4_ball_projection_expands_this_pair(self):
        space = LpSpace(4.0)
        C = Ball(center=np.zeros(3), radius=1.0)
        px = project(space, C, self.X)
        py = project(space, C, self.Y)
        assert space.norm(px - py) > space.norm(self.X - self.Y) + 1e-2

    def test_same_pair_contracts_in_the_euclidean_norm(self):
        space = LpSpace(2.0)
        C = Ball(center=np.zeros(3), radius=1.0)
        px = project(space, C, self.X)
        py = project(space, C, self.Y)
        assert space.norm(px - py) <= space.norm(self.X - self.Y) + 1e-12
