"""A bench: a caller root.  What these calls pass, the options keep."""

from pkg.options import (
    Gadget,
    Handler,
    Widget,
    _private,
    by_position,
    call_form_component,
    decorated_component,
    keyword_only,
    passed_after_all,
    positional_default,
    seam,
    tested_only,
    through_kwargs,
)

settings = {"option": 1}
keyword_only(1, passed=2)
positional_default(1, 2)
tested_only(1)
by_position(1, 2, 3)
through_kwargs(1, **settings)
_private(1)
decorated_component()
call_form_component()
seam(1)
passed_after_all(1, flag=True)
gadget = Gadget(3)
print(Widget(2).render(), gadget.render(), gadget.polish())
Handler.__new__(Handler).send_error(404)
